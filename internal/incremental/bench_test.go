package incremental

import (
	"testing"

	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/workload"
)

// annotationBatchCases are the paper-corpus points BenchmarkAnnotationBatch
// and BenchmarkRemine share, so each batch has its re-mine beside it. The
// n= cases grow the relation at the paper's thresholds (0.4 / 0.8); n=32K
// is paper_maintain's shape. The sup= cases lower the support at 32K
// tuples, which grows the data catalog Figure 13 walks and the rule tiers
// Figure 12 rewrites.
var annotationBatchCases = []struct {
	name    string
	tuples  int
	support float64
}{
	{"n=8K", 8000, 0.4},
	{"n=32K", 32000, 0.4},
	{"n=128K", 128000, 0.4},
	{"n=320K", 320000, 0.4},
	{"sup=0.2", 32000, 0.2},
	{"sup=0.1", 32000, 0.1},
	{"sup=0.05", 32000, 0.05},
	{"sup=0.02", 32000, 0.02},
}

// BenchmarkAnnotationBatch is one attach batch and its matching detach on the
// paper corpus: the incremental batch of the benchmark's paper_maintain
// workload, without the facade. Each iteration attaches 200 generated
// updates and then detaches the ones that applied, so every iteration starts
// from the same relation. Figure 16's speedup at a point is
// BenchmarkRemine's time over half this one's.
//
//	go test -run '^$' -bench 'AnnotationBatch|Remine' -benchmem ./internal/incremental
func BenchmarkAnnotationBatch(b *testing.B) {
	for _, bc := range annotationBatchCases {
		b.Run(bc.name, func(b *testing.B) {
			benchAnnotationBatch(b, bc.tuples, mining.Config{MinSupport: bc.support, MinConfidence: 0.8})
		})
	}
}

// BenchmarkRemine is Figure 16's baseline at each BenchmarkAnnotationBatch
// point: one full mining.Mine of the same relation at the same thresholds.
func BenchmarkRemine(b *testing.B) {
	for _, bc := range annotationBatchCases {
		b.Run(bc.name, func(b *testing.B) {
			_, rel := paperRelation(b, bc.tuples)
			cfg := mining.Config{MinSupport: bc.support, MinConfidence: 0.8}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mining.Mine(rel, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// paperRelation builds the first tuples of the paper corpus at seed 1 and
// returns the stream that continues it.
func paperRelation(b *testing.B, tuples int) (workload.Stream, *relation.Relation) {
	stream, err := workload.NewStream("paper", 1)
	if err != nil {
		b.Fatal(err)
	}
	rel, err := workload.BuildRelation(stream.Base(tuples))
	if err != nil {
		b.Fatal(err)
	}
	return stream, rel
}

func benchAnnotationBatch(b *testing.B, tuples int, cfg mining.Config) {
	stream, rel := paperRelation(b, tuples)
	e, err := New(rel, cfg, Options{})
	if err != nil {
		b.Fatal(err)
	}
	dict := rel.Dictionary()
	var batch []relation.AnnotationUpdate
	for _, u := range stream.Annotations(200, tuples) {
		batch = append(batch, relation.AnnotationUpdate{Index: u.Tuple, Annotation: relation.MustAnnotation(dict, u.Annotation)})
	}
	// Keep only the updates that attach something, so the detach undoes the
	// attach exactly.
	applied, _, err := rel.Clone().ApplyUpdates(batch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AddAnnotations(applied); err != nil {
			b.Fatal(err)
		}
		if _, err := e.RemoveAnnotations(applied); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := e.Verify(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(e.dataCat.Len()), "data-patterns")
	b.ReportMetric(float64(e.valid.Len()+e.cands.Len()+e.coldRules.Len()), "tracked-rules")
}
