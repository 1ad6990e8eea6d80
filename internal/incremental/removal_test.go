package incremental

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
	"annotadb/internal/workload"
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

// TestPropertyLowSupportLifecycleEquivalentToRemine runs the lifecycle where
// the rule tiers are large: the paper corpus at 3 000 tuples under low
// support, through a seeded mix of Case 1, 2 and 3 and removal batches, with
// the incremental rules checked against a full re-mine after every batch.
// At these thresholds the valid tier holds hundreds of rules and batches
// promote and demote some of them, which the small random worlds above
// never reach.
func TestPropertyLowSupportLifecycleEquivalentToRemine(t *testing.T) {
	const (
		tuples  = 3000
		batches = 12
	)
	for _, c := range []struct {
		minSupport float64
		seed       int64
	}{{0.05, 1}, {0.05, 2}, {0.02, 3}, {0.02, 4}} {
		minSupport := c.minSupport
		t.Run(fmt.Sprintf("support=%v/seed=%d", minSupport, c.seed), func(t *testing.T) {
			stream, err := workload.NewStream("paper", c.seed)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := workload.BuildRelation(stream.Base(tuples))
			if err != nil {
				t.Fatal(err)
			}
			e := mustEngine(t, rel, mining.Config{MinSupport: minSupport, MinConfidence: 0.5})
			dict := rel.Dictionary()
			rng := rand.New(rand.NewSource(c.seed))
			minValid := e.Rules().Len()
			var order []int
			for b := 0; b < batches; b++ {
				if b%4 == 0 {
					order = rng.Perm(4) // each round of four runs every kind of batch once
				}
				var err error
				switch op := order[b%4]; op {
				case 0, 1:
					var batch []relation.Tuple
					for _, tu := range stream.Tuples(20 + rng.Intn(60)) {
						var annots []string
						if op == 0 {
							annots = tu.Annotations
						}
						batch = append(batch, relation.MustTuple(dict, tu.Values, annots))
					}
					if op == 0 {
						_, err = e.AddAnnotatedTuples(batch)
					} else {
						_, err = e.AddUnannotatedTuples(batch)
					}
				case 2:
					var batch []relation.AnnotationUpdate
					for _, u := range stream.Annotations(50+rng.Intn(150), rel.Len()) {
						batch = append(batch, relation.AnnotationUpdate{Index: u.Tuple, Annotation: relation.MustAnnotation(dict, u.Annotation)})
					}
					_, err = e.AddAnnotations(batch)
				default:
					var batch []relation.AnnotationUpdate
					for len(batch) < 50+rng.Intn(150) {
						i := rng.Intn(rel.Len())
						tu, terr := rel.Tuple(i)
						if terr != nil {
							t.Fatal(terr)
						}
						if len(tu.Annots) > 0 {
							batch = append(batch, relation.AnnotationUpdate{Index: i, Annotation: tu.Annots[rng.Intn(len(tu.Annots))]})
						}
					}
					_, err = e.RemoveAnnotations(batch)
				}
				if err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				verify(t, e, fmt.Sprintf("batch %d", b))
				minValid = min(minValid, e.Rules().Len())
			}
			st := e.Stats()
			t.Logf("valid rules ≥ %d, stats %+v", minValid, st)
			if minValid < 200 {
				t.Errorf("valid tier fell to %d rules, want hundreds", minValid)
			}
			if st.Promotions == 0 || st.Demotions == 0 {
				t.Errorf("%d promotions and %d demotions, want at least one of each", st.Promotions, st.Demotions)
			}
			if st.Remines != 0 {
				t.Errorf("%d batches fell back to a full re-mine, want every batch maintained incrementally", st.Remines)
			}
		})
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

func TestRemovalSubsetBudgetFallsBackToRemine(t *testing.T) {
	// Mirrors TestCase3SubsetBudgetFallsBackToRemine: tuple 0 carries both
	// frequent fixture annotations, so detaching one of them must mine the
	// three subsets of its pre-removal set, which a budget of 2 cannot pay.
	rel := fixture()
	e, err := New(rel, defaultCfg(), Options{SubsetBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := rel.Dictionary().Lookup("Annot_1")
	rep, err := e.RemoveAnnotations([]relation.AnnotationUpdate{{Index: 0, Annotation: a1}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Remined {
		t.Error("budget exhaustion did not trigger re-mine")
	}
	verify(t, e, "after re-mine fallback")
	if e.Stats().Remines != 1 {
		t.Errorf("Remines = %d", e.Stats().Remines)
	}
}

func TestRemovalRareAnnotationsSkipEnumeration(t *testing.T) {
	// Mirrors TestCase3RareAnnotationsSkipEnumeration: detaching rare
	// annotations changes no relevant annotation, so even a minuscule budget
	// must not force a re-mine — though tuple 0 also carries the two frequent
	// ones — and the result must still match a full re-mine exactly.
	rel := fixture()
	e, err := New(rel, defaultCfg(), Options{SubsetBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	dict := rel.Dictionary()
	rare := []relation.AnnotationUpdate{
		{Index: 0, Annotation: relation.MustAnnotation(dict, "Annot_X1")},
		{Index: 0, Annotation: relation.MustAnnotation(dict, "Annot_X2")},
	}
	if _, err := e.AddAnnotations(rare); err != nil {
		t.Fatal(err)
	}
	rep, err := e.RemoveAnnotations(rare)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 2 || rep.Remined {
		t.Errorf("report %+v, want both removals applied without a re-mine", rep)
	}
	if e.Stats().Remines != 0 {
		t.Errorf("Remines = %d", e.Stats().Remines)
	}
	verify(t, e, "after rare-annotation removal")
}

// TestAnnotationBatchesWithDerivedLabels attaches and then detaches a derived
// label beside raw annotations, alone and in mixed batches, under both
// settings of ExcludeDerived. Under ExcludeDerived a batch that changes only
// the label changes nothing the engine maintains; otherwise the label is an
// annotation like any other and forms rules with the raw ones.
func TestAnnotationBatchesWithDerivedLabels(t *testing.T) {
	for _, exclude := range []bool{false, true} {
		rel := fixture()
		dict := rel.Dictionary()
		label, err := dict.InternDerived("Label_9")
		if err != nil {
			t.Fatal(err)
		}
		a1, _ := dict.Lookup("Annot_1")
		a5, _ := dict.Lookup("Annot_5")
		a9 := relation.MustAnnotation(dict, "Annot_9")
		cfg := defaultCfg()
		cfg.ExcludeDerived = exclude
		e := mustEngine(t, rel, cfg)

		var labelOnly, mixed, raw []relation.AnnotationUpdate
		for i := 0; i < 6; i++ {
			labelOnly = append(labelOnly, relation.AnnotationUpdate{Index: i, Annotation: label})
			mixed = append(mixed, relation.AnnotationUpdate{Index: i, Annotation: a9})
		}
		mixed = append(mixed, relation.AnnotationUpdate{Index: 7, Annotation: label}, relation.AnnotationUpdate{Index: 8, Annotation: label})
		raw = []relation.AnnotationUpdate{{Index: 5, Annotation: a1}, {Index: 7, Annotation: a5}, {Index: 8, Annotation: a1}}
		steps := []struct {
			name   string
			remove bool
			batch  []relation.AnnotationUpdate
		}{
			{"attach label", false, labelOnly},
			{"attach raw beside label", false, mixed},
			{"attach raw", false, raw},
			{"detach label", true, labelOnly},
			{"detach raw and label", true, mixed},
			{"reattach label", false, labelOnly},
			{"detach raw", true, raw},
		}
		for _, st := range steps {
			var rep *Report
			var err error
			if st.remove {
				rep, err = e.RemoveAnnotations(st.batch)
			} else {
				rep, err = e.AddAnnotations(st.batch)
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.Applied != len(st.batch) || rep.Remined {
				t.Errorf("ExcludeDerived=%v, %s: report %+v", exclude, st.name, rep)
			}
			verify(t, e, fmt.Sprintf("ExcludeDerived=%v, %s", exclude, st.name))
		}
		labelRules := 0
		e.Rules().Each(func(r rules.Rule) bool {
			if r.RHS == label || r.LHS.Contains(label) {
				labelRules++
			}
			return true
		})
		if exclude != (labelRules == 0) {
			t.Errorf("ExcludeDerived=%v: %d rules mention the derived label", exclude, labelRules)
		}
	}
}
