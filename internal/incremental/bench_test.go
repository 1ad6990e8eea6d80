package incremental

import (
	"testing"

	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/workload"
)

// BenchmarkAnnotationBatch is one attach batch and its matching detach on the
// paper corpus at 32K tuples under the paper's thresholds (0.4 / 0.8): the
// incremental batch of the benchmark's paper_maintain workload, without the
// facade. Each iteration attaches 200 generated updates and then detaches
// the ones that applied, so every iteration starts from the same relation.
//
//	go test -run '^$' -bench AnnotationBatch -benchmem ./internal/incremental
func BenchmarkAnnotationBatch(b *testing.B) {
	stream, err := workload.NewStream("paper", 1)
	if err != nil {
		b.Fatal(err)
	}
	const tuples = 32000
	rel, err := workload.BuildRelation(stream.Base(tuples))
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(rel, mining.Config{MinSupport: 0.4, MinConfidence: 0.8}, Options{})
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
}
