package annotadb

import (
	"context"
	"strings"
	"testing"
)

func TestEngineRemoveAnnotations(t *testing.T) {
	ds := sampleDS(t)
	eng, err := NewEngine(ds, Options{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RemoveAnnotations([]AnnotationUpdate{
		{Tuple: 0, Annotation: "Annot_1"},
		{Tuple: 5, Annotation: "Annot_1"}, // tuple 5 has no annotations → skipped
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Operation, "case4") {
		t.Errorf("operation = %q", rep.Operation)
	}
	if rep.Applied != 1 || rep.Skipped != 1 {
		t.Errorf("report = %+v", rep)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := ds.AnnotationFrequency("Annot_1"); got != 4 {
		t.Errorf("frequency = %d, want 4", got)
	}
	// Unknown token and data-value token are rejected.
	if _, err := eng.RemoveAnnotations([]AnnotationUpdate{{Tuple: 0, Annotation: "Annot_nope"}}); err == nil {
		t.Error("unknown annotation accepted")
	}
	if _, err := eng.RemoveAnnotations([]AnnotationUpdate{{Tuple: 0, Annotation: "28"}}); err == nil {
		t.Error("data token accepted as annotation")
	}
}

func TestEngineAddRemoveRoundTrip(t *testing.T) {
	ds := sampleDS(t)
	eng, err := NewEngine(ds, Options{MinSupport: 0.3, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Rules()
	batch := []AnnotationUpdate{
		{Tuple: 5, Annotation: "Annot_1"},
		{Tuple: 7, Annotation: "Annot_5"},
	}
	if _, err := eng.AddAnnotations(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RemoveAnnotations(batch); err != nil {
		t.Fatal(err)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
	after := eng.Rules()
	if len(before) != len(after) {
		t.Fatalf("rule count changed: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i].String() != after[i].String() {
			t.Errorf("rule %d changed: %v -> %v", i, before[i], after[i])
		}
	}
}

// TestRemovalOfUnheldTokensInternsNothing pins the refused removals' text,
// byte for byte, on an Engine and on a sharded Server, and that a refused
// removal leaves the dictionary as it was: the Engine's holds as many
// tokens, and on the Server the same token is still unknown the second
// time. An unknown token is reported before a data token met earlier in
// the same batch.
func TestRemovalOfUnheldTokensInternsNothing(t *testing.T) {
	cases := []struct {
		batch      []AnnotationUpdate
		engine, sv string
	}{
		{
			[]AnnotationUpdate{{Tuple: 0, Annotation: "Annot_1"}, {Tuple: 1, Annotation: "Annot_nope"}},
			`annotadb: removal 1: annotation "Annot_nope" unknown to this dataset`,
			`removal 1: annotation "Annot_nope" unknown to this dataset`,
		},
		{
			[]AnnotationUpdate{{Tuple: 0, Annotation: "Annot_1"}, {Tuple: 2, Annotation: "28"}},
			`annotadb: removal: update 1: relation: token "28" already interned as data, cannot re-intern as annotation`,
			`removal 1: relation: token "28" already interned as data, cannot re-intern as annotation`,
		},
		{
			[]AnnotationUpdate{{Tuple: 0, Annotation: "28"}, {Tuple: 3, Annotation: "Annot_nope"}},
			`annotadb: removal 1: annotation "Annot_nope" unknown to this dataset`,
			`removal 0: relation: token "28" already interned as data, cannot re-intern as annotation`,
		},
	}

	ds := sampleDS(t)
	eng, err := NewEngine(ds, Options{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	dict := ds.rel.Dictionary()
	for _, c := range cases {
		size := dict.Len()
		for round := 0; round < 2; round++ {
			if _, err := eng.RemoveAnnotations(c.batch); err == nil || err.Error() != c.engine {
				t.Errorf("Engine removal %v, round %d: err = %v, want %q", c.batch, round, err, c.engine)
			}
		}
		if dict.Len() != size {
			t.Errorf("Engine removal %v grew the dictionary from %d to %d tokens", c.batch, size, dict.Len())
		}
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(eng, ServeOptions{BatchWindow: -1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, srv)
	for _, c := range cases {
		for round := 0; round < 2; round++ {
			if _, err := srv.RemoveAnnotations(context.Background(), c.batch); err == nil || err.Error() != c.sv {
				t.Errorf("sharded Server removal %v, round %d: err = %v, want %q", c.batch, round, err, c.sv)
			}
		}
	}
}
