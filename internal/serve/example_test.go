package serve_test

import (
	"context"
	"fmt"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/serve"
)

// Example wraps an incremental engine in the serving core: readers work on
// the atomically published snapshot, a write republishes it, and the
// acknowledged write is immediately visible (read-your-writes).
func Example() {
	rel := relation.FromTokens(
		[][]string{
			{"28", "85"}, {"28", "85"}, {"28", "85"}, {"28", "85"}, {"28", "41"},
		},
		[][]string{
			{"Annot_1"}, {"Annot_1"}, {"Annot_1"}, nil, nil,
		},
	)
	eng, err := incremental.New(rel, mining.Config{MinSupport: 0.4, MinConfidence: 0.7}, incremental.Options{})
	if err != nil {
		panic(err)
	}
	s := serve.New(eng, serve.Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	}()

	before := s.Snapshot()
	fmt.Printf("snapshot %d: %d rules over %d tuples\n", before.Seq, before.Rules.Len(), before.N)

	// Attach Annot_1 to the fourth tuple (Case 3); the ack guarantees the
	// next snapshot read reflects it.
	a1, _ := rel.Dictionary().Lookup("Annot_1")
	if _, err := s.AddAnnotations(context.Background(), []relation.AnnotationUpdate{{Index: 3, Annotation: a1}}); err != nil {
		panic(err)
	}
	after := s.Snapshot()
	fmt.Printf("snapshot %d: %d rules over %d tuples\n", after.Seq, after.Rules.Len(), after.N)
	for _, r := range after.Rules.Sorted() {
		fmt.Println(r.Format(rel.Dictionary()))
	}
	// Output:
	// snapshot 1: 2 rules over 5 tuples
	// snapshot 2: 3 rules over 5 tuples
	// 28 -> Annot_1 (confidence: 0.8000, support: 0.8000)
	// 85 -> Annot_1 (confidence: 1.0000, support: 0.8000)
	// 28, 85 -> Annot_1 (confidence: 1.0000, support: 0.8000)
}
