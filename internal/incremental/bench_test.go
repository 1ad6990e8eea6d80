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

// BenchmarkAnnotationStream is paper_maintain's annotation traffic at n=32K
// and 0.4 / 0.8: a rolling sequence of fresh 200-update attach batches, each
// detached 32 batches later, with a relation view captured every 50 batches
// as a serving publish does. An iteration is one attach batch and one
// detach batch. Unlike BenchmarkAnnotationBatch, which repeats one
// cache-warm batch over a never-sealed relation, every batch here lands on
// other tuples, and the views make writes pay their copy-on-write copies.
//
//	go test -run '^$' -bench AnnotationStream -benchmem ./internal/incremental
func BenchmarkAnnotationStream(b *testing.B) {
	benchAnnotationStream(b, func(rel *relation.Relation) { rel.View() })
}

// BenchmarkAnnotationStreamRemine is the same stream with paper_maintain's
// own periodic capture: a full re-mine (mining.Mine) every 50 batches. The
// mine is not timed; what is timed is what it leaves the batches after it to
// copy.
func BenchmarkAnnotationStreamRemine(b *testing.B) {
	cfg := mining.Config{MinSupport: 0.4, MinConfidence: 0.8}
	benchAnnotationStream(b, func(rel *relation.Relation) {
		b.StopTimer()
		if _, err := mining.Mine(rel, cfg); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	})
}

// benchAnnotationStream runs the annotation stream, calling capture every 50
// batches.
func benchAnnotationStream(b *testing.B, capture func(*relation.Relation)) {
	const (
		tuples  = 32000
		updates = 200
		window  = 32 // batches an attach stays before its detach
		viewGap = 50 // batches between captures
	)
	stream, rel := paperRelation(b, tuples)
	e, err := New(rel, mining.Config{MinSupport: 0.4, MinConfidence: 0.8}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	dict := rel.Dictionary()
	batches := make([][]relation.AnnotationUpdate, window+b.N)
	for k := range batches {
		for _, u := range stream.Annotations(updates, tuples) {
			batches[k] = append(batches[k], relation.AnnotationUpdate{Index: u.Tuple, Annotation: relation.MustAnnotation(dict, u.Annotation)})
		}
	}
	// attached[k%window] holds what batch k attached until its detach.
	attached := make([][]relation.AnnotationUpdate, window)
	attach := func(k int) {
		if _, err := e.AddAnnotations(batches[k]); err != nil {
			b.Fatal(err)
		}
		attached[k%window] = append(attached[k%window][:0], e.delta.Applied...)
		if k%viewGap == 0 {
			capture(rel)
		}
	}
	for k := 0; k < window; k++ {
		attach(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := window + i
		if _, err := e.RemoveAnnotations(attached[k%window]); err != nil {
			b.Fatal(err)
		}
		attach(k)
	}
	b.StopTimer()
	if err := e.Verify(); err != nil {
		b.Fatal(err)
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
