package incremental

import (
	"math/rand"
	"testing"
	"testing/quick"

	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

func TestRemoveAnnotationsBasic(t *testing.T) {
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	dict := rel.Dictionary()
	a1, _ := dict.Lookup("Annot_1")

	rep, err := e.RemoveAnnotations([]relation.AnnotationUpdate{
		{Index: 0, Annotation: a1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Case != CaseRemoveAnnotations || rep.Applied != 1 {
		t.Errorf("report = %+v", rep)
	}
	verify(t, e, "after removal")
	if got := rel.Frequency(a1); got != 4 {
		t.Errorf("frequency = %d, want 4", got)
	}
	tu, _ := rel.Tuple(0)
	if tu.HasAnnotation(a1) {
		t.Error("annotation still attached")
	}
	if err := rel.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveAnnotationsCanDropRules(t *testing.T) {
	// {28,85}⇒Annot_1 holds with pattern 5/10 at minsup 0.4; removing the
	// annotation from two pattern tuples drops it to 3/10 < 0.4.
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	dict := rel.Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	v28, _ := dict.Lookup("28")
	v85, _ := dict.Lookup("85")
	id := rules.Rule{LHS: itemset.New(v28, v85), RHS: a1}.ID()
	if _, ok := e.Rules().Get(id); !ok {
		t.Fatal("precondition: rule valid")
	}
	rep, err := e.RemoveAnnotations([]relation.AnnotationUpdate{
		{Index: 0, Annotation: a1},
		{Index: 1, Annotation: a1},
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, e, "after rule-breaking removal")
	if _, ok := e.Rules().Get(id); ok {
		t.Error("rule survived support collapse")
	}
	if rep.Demoted+rep.Dropped == 0 {
		t.Errorf("report shows no demotion: %+v", rep)
	}
}

func TestRemoveAnnotationsCanRaiseConfidence(t *testing.T) {
	// Annot_1 ⇒ Annot_5 has confidence 3/5 = 0.6 (< 0.7, a candidate).
	// Removing Annot_1 from a tuple WITHOUT Annot_5 (tuple 3) shrinks the
	// LHS count: 3/4 = 0.75 ≥ 0.7 — the candidate must be promoted.
	rel := fixture()
	cfg := mining.Config{MinSupport: 0.25, MinConfidence: 0.7}
	e := mustEngine(t, rel, cfg)
	dict := rel.Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	a5, _ := dict.Lookup("Annot_5")
	id := rules.Rule{LHS: itemset.New(a1), RHS: a5}.ID()
	if _, ok := e.Candidates().Get(id); !ok {
		t.Fatal("precondition: Annot_1=>Annot_5 is a candidate")
	}
	rep, err := e.RemoveAnnotations([]relation.AnnotationUpdate{
		{Index: 3, Annotation: a1},
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, e, "after LHS-shrinking removal")
	r, ok := e.Rules().Get(id)
	if !ok {
		t.Fatal("candidate not promoted on confidence rise")
	}
	if r.PatternCount != 3 || r.LHSCount != 4 {
		t.Errorf("counts = %d/%d, want 3/4", r.PatternCount, r.LHSCount)
	}
	if rep.Promoted == 0 {
		t.Errorf("report shows no promotion: %+v", rep)
	}
}

func TestRemoveAnnotationsSkipsAbsent(t *testing.T) {
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	dict := rel.Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	rep, err := e.RemoveAnnotations([]relation.AnnotationUpdate{
		{Index: 5, Annotation: a1}, // tuple 5 has no annotations
		{Index: 0, Annotation: a1}, // present
		{Index: 0, Annotation: a1}, // already removed within the batch
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 1 || rep.Skipped != 2 {
		t.Errorf("report = %+v", rep)
	}
	verify(t, e, "after partially-absent batch")
}

func TestRemoveAnnotationsBadIndex(t *testing.T) {
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	a1, _ := rel.Dictionary().Lookup("Annot_1")
	if _, err := e.RemoveAnnotations([]relation.AnnotationUpdate{{Index: 99, Annotation: a1}}); err == nil {
		t.Error("out-of-range removal accepted")
	}
	verify(t, e, "after failed removal batch")
}

func TestAddThenRemoveIsIdentity(t *testing.T) {
	rel := fixture()
	cfg := mining.Config{MinSupport: 0.3, MinConfidence: 0.7}
	e := mustEngine(t, rel, cfg)
	before := e.Rules()

	dict := rel.Dictionary()
	a4 := relation.MustAnnotation(dict, "Annot_4")
	batch := []relation.AnnotationUpdate{
		{Index: 3, Annotation: a4},
		{Index: 5, Annotation: a4},
		{Index: 7, Annotation: a4},
	}
	if _, err := e.AddAnnotations(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RemoveAnnotations(batch); err != nil {
		t.Fatal(err)
	}
	verify(t, e, "after add+remove")
	after := e.Rules()
	if diff := rules.Diff(after, before, dict); len(diff) != 0 {
		t.Errorf("add+remove not identity: %v", diff)
	}
}

func TestPropertyRemovalEquivalentToRemine(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	f := func() bool {
		w := newRandomWorld(rng, 25+rng.Intn(35))
		e, err := New(w.rel, randomCfg(rng), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			// Remove existing attachments found by scanning.
			var batch []relation.AnnotationUpdate
			w.rel.Each(func(i int, tu relation.Tuple) bool {
				for _, a := range tu.Annots {
					if rng.Intn(6) == 0 {
						batch = append(batch, relation.AnnotationUpdate{Index: i, Annotation: a})
					}
				}
				return len(batch) < 12
			})
			if len(batch) == 0 {
				continue
			}
			if _, err := e.RemoveAnnotations(batch); err != nil {
				t.Fatal(err)
			}
			if err := e.Verify(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFullLifecycleEquivalentToRemine interleaves all four cases —
// the complete system of the paper plus its future-work extension.
func TestPropertyFullLifecycleEquivalentToRemine(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	f := func() bool {
		w := newRandomWorld(rng, 25+rng.Intn(30))
		e, err := New(w.rel, randomCfg(rng), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 6; round++ {
			switch rng.Intn(4) {
			case 0:
				var batch []relation.Tuple
				for i := 0; i < 1+rng.Intn(8); i++ {
					batch = append(batch, w.randomTuple())
				}
				if _, err := e.AddAnnotatedTuples(batch); err != nil {
					t.Fatal(err)
				}
			case 1:
				var batch []relation.Tuple
				for i := 0; i < 1+rng.Intn(8); i++ {
					batch = append(batch, w.randomUnannotatedTuple())
				}
				if _, err := e.AddUnannotatedTuples(batch); err != nil {
					t.Fatal(err)
				}
			case 2:
				var batch []relation.AnnotationUpdate
				for i := 0; i < 1+rng.Intn(8); i++ {
					batch = append(batch, relation.AnnotationUpdate{
						Index:      rng.Intn(w.rel.Len()),
						Annotation: w.annots[rng.Intn(len(w.annots))],
					})
				}
				if _, err := e.AddAnnotations(batch); err != nil {
					t.Fatal(err)
				}
			default:
				var batch []relation.AnnotationUpdate
				w.rel.Each(func(i int, tu relation.Tuple) bool {
					for _, a := range tu.Annots {
						if rng.Intn(8) == 0 {
							batch = append(batch, relation.AnnotationUpdate{Index: i, Annotation: a})
						}
					}
					return len(batch) < 10
				})
				if _, err := e.RemoveAnnotations(batch); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Verify(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestRemovalStatsAndCaseName(t *testing.T) {
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	a1, _ := rel.Dictionary().Lookup("Annot_1")
	if _, err := e.RemoveAnnotations([]relation.AnnotationUpdate{{Index: 0, Annotation: a1}}); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Removals != 1 {
		t.Errorf("Removals = %d", e.Stats().Removals)
	}
	if CaseRemoveAnnotations.String() != "case4-remove-annotations" {
		t.Errorf("case name = %q", CaseRemoveAnnotations.String())
	}
}
