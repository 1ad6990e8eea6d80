package incremental

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

func defaultCfg() mining.Config {
	return mining.Config{MinSupport: 0.4, MinConfidence: 0.8}
}

// fixture: 10 tuples, {28,85}⇒Annot_1 strong, Annot_5⇒Annot_1 moderate.
func fixture() *relation.Relation {
	return relation.FromTokens(
		[][]string{
			{"28", "85", "99"},
			{"28", "85", "12"},
			{"28", "85", "40"},
			{"28", "85", "41"},
			{"28", "85"},
			{"28", "41"},
			{"41", "85"},
			{"62", "12"},
			{"62", "40"},
			{"99", "12"},
		},
		[][]string{
			{"Annot_1", "Annot_5"},
			{"Annot_1", "Annot_5"},
			{"Annot_1", "Annot_5"},
			{"Annot_1"},
			{"Annot_1"},
			nil,
			{"Annot_5"},
			nil,
			nil,
			nil,
		},
	)
}

func mustEngine(t *testing.T, rel *relation.Relation, cfg mining.Config) *Engine {
	t.Helper()
	e, err := New(rel, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func verify(t *testing.T, e *Engine, context string) {
	t.Helper()
	if err := e.Verify(); err != nil {
		t.Fatalf("%s: %v", context, err)
	}
}

func TestBootstrapMatchesFullMine(t *testing.T) {
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	verify(t, e, "bootstrap")
	if e.Rules().Len() == 0 {
		t.Fatal("bootstrap found no rules")
	}
	if e.Stats().Bootstraps != 1 {
		t.Errorf("Bootstraps = %d", e.Stats().Bootstraps)
	}
	if e.MinCount() != 4 {
		t.Errorf("MinCount = %d, want 4", e.MinCount())
	}
}

// TestVerifyChecksBoundCandidates pins what Verify compares besides the
// valid tier: the candidates at or above min support (invariant I3) must
// equal a re-mine's, while the surplus below it may differ.
func TestVerifyChecksBoundCandidates(t *testing.T) {
	// Confidence 0.9 makes {28}⇒Annot_1 (5 of 6) a candidate at min
	// support; slack 0.5 keeps candidates down to a pattern count of 2.
	e := mustEngine(t, fixture(), mining.Config{MinSupport: 0.4, MinConfidence: 0.9, CandidateSlack: 0.5})
	var bound, surplus []rules.Rule
	e.cands.Each(func(r rules.Rule) bool {
		if r.PatternCount >= e.minCount {
			bound = append(bound, r)
		} else {
			surplus = append(surplus, r)
		}
		return true
	})
	if len(bound) == 0 || len(surplus) == 0 {
		t.Fatalf("fixture has %d bound and %d surplus candidates, want both", len(bound), len(surplus))
	}
	for _, r := range surplus {
		e.cands.Remove(r.ID())
	}
	verify(t, e, "surplus candidates dropped")
	e.cands.Remove(bound[0].ID())
	if err := e.Verify(); err == nil || !strings.Contains(err.Error(), "candidate") {
		t.Errorf("Verify with candidate %v missing = %v, want a candidate discrepancy", bound[0], err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(fixture(), mining.Config{MinSupport: -1}, Options{}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestCase1AddAnnotatedTuples(t *testing.T) {
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	dict := rel.Dictionary()

	batch := []relation.Tuple{
		relation.MustTuple(dict, []string{"28", "85"}, []string{"Annot_1"}),
		relation.MustTuple(dict, []string{"28", "85", "12"}, []string{"Annot_1", "Annot_5"}),
		relation.MustTuple(dict, []string{"62"}, []string{"Annot_4"}),
	}
	rep, err := e.AddAnnotatedTuples(batch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Case != CaseAnnotatedTuples || rep.Applied != 3 {
		t.Errorf("report = %+v", rep)
	}
	if rel.Len() != 13 {
		t.Errorf("relation len = %d", rel.Len())
	}
	verify(t, e, "after case 1")

	// The strengthened rule has exact updated counts.
	v28, _ := dict.Lookup("28")
	v85, _ := dict.Lookup("85")
	a1, _ := dict.Lookup("Annot_1")
	r, ok := e.Rules().Get(rules.Rule{LHS: itemset.New(v28, v85), RHS: a1}.ID())
	if !ok {
		t.Fatal("rule {28,85}=>Annot_1 lost")
	}
	if r.PatternCount != 7 || r.LHSCount != 7 || r.N != 13 {
		t.Errorf("counts = %d/%d/%d, want 7/7/13", r.PatternCount, r.LHSCount, r.N)
	}
}

func TestCase1DiscoverNewRule(t *testing.T) {
	// A brand-new correlation concentrated in the batch: token "77" with
	// Annot_9 appears only in the batch but floods it, crossing thresholds.
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	dict := rel.Dictionary()

	var batch []relation.Tuple
	for i := 0; i < 10; i++ {
		batch = append(batch, relation.MustTuple(dict, []string{"77"}, []string{"Annot_9"}))
	}
	rep, err := e.AddAnnotatedTuples(batch)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, e, "after newcomer batch")
	v77, _ := dict.Lookup("77")
	a9, _ := dict.Lookup("Annot_9")
	if _, ok := e.Rules().Get(rules.Rule{LHS: itemset.New(v77), RHS: a9}.ID()); !ok {
		t.Errorf("newcomer rule not discovered (report %+v)", rep)
	}
	if rep.Discovered == 0 {
		t.Errorf("report.Discovered = 0, want > 0")
	}
	if rep.Remined {
		t.Error("newcomer discovery should not need a re-mine")
	}
}

// TestDeltaDiscoveryWithDerivedLabels: delta discovery counts its patterns
// with CountPattern over the whole relation, derived labels included. Under
// ExcludeDerived the batch index is mined with the labels restricted away, so
// the patterns hold none and the counts, and the rules, still match a
// re-mine either way.
func TestDeltaDiscoveryWithDerivedLabels(t *testing.T) {
	for _, exclude := range []bool{false, true} {
		rel := fixture()
		dict := rel.Dictionary()
		label, err := dict.InternDerived("Label_9")
		if err != nil {
			t.Fatal(err)
		}
		cfg := defaultCfg()
		cfg.ExcludeDerived = exclude
		e := mustEngine(t, rel, cfg)
		var batch []relation.Tuple
		for i := 0; i < 10; i++ {
			batch = append(batch, relation.NewTuple(relation.MustData(dict, "77"), relation.MustAnnotation(dict, "Annot_9"), label))
		}
		rep, err := e.AddAnnotatedTuples(batch)
		if err != nil {
			t.Fatal(err)
		}
		verify(t, e, "after a batch carrying a derived label")
		if rep.Discovered == 0 || rep.Remined {
			t.Errorf("ExcludeDerived=%v: report %+v, want delta discovery without a re-mine", exclude, rep)
		}
	}
}

func TestCase1EmptyBatch(t *testing.T) {
	e := mustEngine(t, fixture(), defaultCfg())
	rep, err := e.AddAnnotatedTuples(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 0 {
		t.Errorf("Applied = %d", rep.Applied)
	}
	verify(t, e, "after empty batch")
}

func TestCase2AddUnannotatedTuples(t *testing.T) {
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	dict := rel.Dictionary()
	before := e.Rules()

	batch := []relation.Tuple{
		relation.MustTuple(dict, []string{"28", "85"}, nil), // hits rule LHS
		relation.MustTuple(dict, []string{"62", "12"}, nil),
	}
	rep, err := e.AddUnannotatedTuples(batch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Case != CaseUnannotatedTuples {
		t.Errorf("case = %v", rep.Case)
	}
	verify(t, e, "after case 2")

	// Figure 11: data-to-annotation support and confidence may only
	// decrease; no new rules ever appear.
	after := e.Rules()
	after.Each(func(r rules.Rule) bool {
		if old, ok := before.Get(r.ID()); ok {
			if r.Support() > old.Support()+1e-12 {
				t.Errorf("support increased in case 2: %v", r)
			}
			if r.Kind() == rules.DataToAnnotation && r.Confidence() > old.Confidence()+1e-12 {
				t.Errorf("confidence increased in case 2: %v", r)
			}
			if r.Kind() == rules.AnnotationToAnnotation && r.Confidence() != old.Confidence() {
				t.Errorf("A2A confidence changed in case 2: %v", r)
			}
		} else {
			t.Errorf("new rule appeared in case 2: %v", r)
		}
		return true
	})
	if rep.Discovered != 0 {
		t.Errorf("case 2 discovered %d rules", rep.Discovered)
	}
}

func TestCase2RejectsAnnotatedTuples(t *testing.T) {
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	bad := []relation.Tuple{relation.MustTuple(rel.Dictionary(), []string{"1"}, []string{"Annot_1"})}
	if _, err := e.AddUnannotatedTuples(bad); err == nil {
		t.Error("annotated tuple accepted by case 2")
	}
	verify(t, e, "after rejected batch")
}

func TestCase2CanDropRules(t *testing.T) {
	// Dilute until {28,85}⇒Annot_1 falls below min support.
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	dict := rel.Dictionary()
	v28, _ := dict.Lookup("28")
	v85, _ := dict.Lookup("85")
	a1, _ := dict.Lookup("Annot_1")
	id := rules.Rule{LHS: itemset.New(v28, v85), RHS: a1}.ID()
	if _, ok := e.Rules().Get(id); !ok {
		t.Fatal("precondition: rule exists")
	}
	var batch []relation.Tuple
	for i := 0; i < 10; i++ {
		batch = append(batch, relation.MustTuple(dict, []string{"62"}, nil))
	}
	rep, err := e.AddUnannotatedTuples(batch)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, e, "after dilution")
	if _, ok := e.Rules().Get(id); ok {
		t.Error("diluted rule still valid (support 5/20 = 0.25 < 0.4)")
	}
	if rep.Demoted+rep.Dropped == 0 {
		t.Errorf("report shows no demotions: %+v", rep)
	}
}

func TestCase3AddAnnotations(t *testing.T) {
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	dict := rel.Dictionary()
	a1, _ := dict.Lookup("Annot_1")

	// Tuple 6 is {41,85 | Annot_5}; adding Annot_1 strengthens
	// Annot_5 ⇒ Annot_1 and completes {85}⇒Annot_1 patterns.
	rep, err := e.AddAnnotations([]relation.AnnotationUpdate{
		{Index: 6, Annotation: a1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Case != CaseNewAnnotations || rep.Applied != 1 {
		t.Errorf("report = %+v", rep)
	}
	verify(t, e, "after case 3")
	if rel.Frequency(a1) != 6 {
		t.Errorf("frequency table = %d, want 6", rel.Frequency(a1))
	}
}

func TestCase3DuplicatesSkipped(t *testing.T) {
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	a1, _ := rel.Dictionary().Lookup("Annot_1")
	rep, err := e.AddAnnotations([]relation.AnnotationUpdate{
		{Index: 0, Annotation: a1}, // already present
		{Index: 0, Annotation: a1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 0 || rep.Skipped != 2 {
		t.Errorf("report = %+v", rep)
	}
	verify(t, e, "after duplicate-only batch")
}

func TestCase3BadIndexFailsCleanly(t *testing.T) {
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	a1, _ := rel.Dictionary().Lookup("Annot_1")
	if _, err := e.AddAnnotations([]relation.AnnotationUpdate{{Index: 999, Annotation: a1}}); err == nil {
		t.Error("out-of-range batch accepted")
	}
	verify(t, e, "after failed batch")
}

func TestCase3ConfidenceCanDrop(t *testing.T) {
	// Paper: "In the case where the new annotation appears in the L.H.S. of
	// the rule, the confidence needs to be recalculated because it is
	// possible it will decrease." Annot_5 ⇒ Annot_1 has conf 3/4; adding
	// Annot_5 to a tuple without Annot_1 drops it to 3/5.
	rel := fixture()
	cfg := mining.Config{MinSupport: 0.3, MinConfidence: 0.75}
	e := mustEngine(t, rel, cfg)
	dict := rel.Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	a5, _ := dict.Lookup("Annot_5")
	id := rules.Rule{LHS: itemset.New(a5), RHS: a1}.ID()
	if _, ok := e.Rules().Get(id); !ok {
		t.Fatal("precondition: Annot_5=>Annot_1 valid at conf 0.75")
	}
	rep, err := e.AddAnnotations([]relation.AnnotationUpdate{
		{Index: 7, Annotation: a5}, // tuple 7 has no Annot_1
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, e, "after LHS-side annotation add")
	if _, ok := e.Rules().Get(id); ok {
		t.Error("rule kept despite confidence drop to 0.6")
	}
	if rep.Demoted == 0 {
		t.Errorf("report shows no demotion: %+v", rep)
	}
	// It should survive in the candidate store (pattern count unchanged).
	if _, ok := e.Candidates().Get(id); !ok {
		t.Error("demoted rule not in candidate store")
	}
}

func TestCase3DiscoverDataRule(t *testing.T) {
	// {28,85} appears 5× without Annot_7; annotate those tuples with
	// Annot_7 and the rule {28,85} ⇒ Annot_7 must be discovered.
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	dict := rel.Dictionary()
	a7 := relation.MustAnnotation(dict, "Annot_7")
	var batch []relation.AnnotationUpdate
	for _, idx := range []int{0, 1, 2, 3, 4} {
		batch = append(batch, relation.AnnotationUpdate{Index: idx, Annotation: a7})
	}
	rep, err := e.AddAnnotations(batch)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, e, "after case 3 discovery")
	v28, _ := dict.Lookup("28")
	v85, _ := dict.Lookup("85")
	r, ok := e.Rules().Get(rules.Rule{LHS: itemset.New(v28, v85), RHS: a7}.ID())
	if !ok {
		t.Fatalf("rule {28,85}=>Annot_7 not discovered (report %+v)", rep)
	}
	if r.PatternCount != 5 || r.LHSCount != 5 || r.N != 10 {
		t.Errorf("counts = %d/%d/%d", r.PatternCount, r.LHSCount, r.N)
	}
	if rep.Discovered == 0 {
		t.Error("report.Discovered = 0")
	}
	if rep.Remined {
		t.Error("discovery should not re-mine")
	}
}

func TestCase3DiscoverAnnotationRule(t *testing.T) {
	// Annot_5 and the new Annot_8 co-occur heavily after the batch:
	// Annot_8 ⇒ Annot_5 (and reverse) become discoverable.
	rel := fixture()
	cfg := mining.Config{MinSupport: 0.3, MinConfidence: 0.7}
	e := mustEngine(t, rel, cfg)
	dict := rel.Dictionary()
	a8 := relation.MustAnnotation(dict, "Annot_8")
	var batch []relation.AnnotationUpdate
	for _, idx := range []int{0, 1, 2, 6} { // all Annot_5 tuples
		batch = append(batch, relation.AnnotationUpdate{Index: idx, Annotation: a8})
	}
	if _, err := e.AddAnnotations(batch); err != nil {
		t.Fatal(err)
	}
	verify(t, e, "after A2A discovery")
	a5, _ := dict.Lookup("Annot_5")
	r, ok := e.Rules().Get(rules.Rule{LHS: itemset.New(a8), RHS: a5}.ID())
	if !ok {
		t.Fatal("rule Annot_8=>Annot_5 not discovered")
	}
	if r.PatternCount != 4 || r.LHSCount != 4 {
		t.Errorf("counts = %d/%d, want 4/4", r.PatternCount, r.LHSCount)
	}
}

func TestCase3SubsetBudgetFallsBackToRemine(t *testing.T) {
	// The budget only bites for annotations at slack-pool frequency —
	// rare annotations are excluded from enumeration entirely. Attach the
	// two frequent fixture annotations to a bare tuple under a budget too
	// small for even their three subsets.
	rel := fixture()
	e, err := New(rel, defaultCfg(), Options{SubsetBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	dict := rel.Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	a5, _ := dict.Lookup("Annot_5")
	rep, err := e.AddAnnotations([]relation.AnnotationUpdate{
		{Index: 7, Annotation: a1},
		{Index: 7, Annotation: a5},
	})
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

func TestCase3RareAnnotationsSkipEnumeration(t *testing.T) {
	// Rare annotations cannot form slack-level patterns, so even a
	// minuscule budget must not force a re-mine for them — and the result
	// must still match a full re-mine exactly.
	rel := fixture()
	e, err := New(rel, defaultCfg(), Options{SubsetBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	dict := rel.Dictionary()
	aX := relation.MustAnnotation(dict, "Annot_X1")
	aY := relation.MustAnnotation(dict, "Annot_X2")
	rep, err := e.AddAnnotations([]relation.AnnotationUpdate{
		{Index: 0, Annotation: aX},
		{Index: 0, Annotation: aY},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Remined {
		t.Error("rare annotations triggered a re-mine")
	}
	verify(t, e, "after rare-annotation batch")
}

func TestCandidatePromotionAcrossCases(t *testing.T) {
	// Annot_1⇒Annot_5 starts at conf 3/5 (candidate at minconf 0.7).
	// Annotating tuples 3 and 4 (Annot_1 holders) with Annot_5 lifts it to
	// 5/5 — the candidate store must promote it without a re-mine.
	rel := fixture()
	cfg := mining.Config{MinSupport: 0.3, MinConfidence: 0.7}
	e := mustEngine(t, rel, cfg)
	dict := rel.Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	a5, _ := dict.Lookup("Annot_5")
	id := rules.Rule{LHS: itemset.New(a1), RHS: a5}.ID()
	if _, ok := e.Candidates().Get(id); !ok {
		t.Fatal("precondition: Annot_1=>Annot_5 is a candidate")
	}
	rep, err := e.AddAnnotations([]relation.AnnotationUpdate{
		{Index: 3, Annotation: a5},
		{Index: 4, Annotation: a5},
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, e, "after promotion batch")
	if _, ok := e.Rules().Get(id); !ok {
		t.Error("candidate not promoted")
	}
	if rep.Promoted == 0 {
		t.Errorf("report shows no promotion: %+v", rep)
	}
}

func TestInterleavedCasesStayExact(t *testing.T) {
	rel := fixture()
	cfg := mining.Config{MinSupport: 0.3, MinConfidence: 0.7}
	e := mustEngine(t, rel, cfg)
	dict := rel.Dictionary()

	if _, err := e.AddAnnotatedTuples([]relation.Tuple{
		relation.MustTuple(dict, []string{"28", "85"}, []string{"Annot_1"}),
	}); err != nil {
		t.Fatal(err)
	}
	verify(t, e, "step 1")
	if _, err := e.AddUnannotatedTuples([]relation.Tuple{
		relation.MustTuple(dict, []string{"41", "12"}, nil),
	}); err != nil {
		t.Fatal(err)
	}
	verify(t, e, "step 2")
	a4 := relation.MustAnnotation(dict, "Annot_4")
	if _, err := e.AddAnnotations([]relation.AnnotationUpdate{
		{Index: 5, Annotation: a4},
		{Index: 7, Annotation: a4},
	}); err != nil {
		t.Fatal(err)
	}
	verify(t, e, "step 3")
	if _, err := e.AddAnnotatedTuples([]relation.Tuple{
		relation.MustTuple(dict, []string{"62", "40"}, []string{"Annot_4", "Annot_5"}),
	}); err != nil {
		t.Fatal(err)
	}
	verify(t, e, "step 4")
}

func TestDisableCandidateStore(t *testing.T) {
	rel := fixture()
	e, err := New(rel, mining.Config{MinSupport: 0.3, MinConfidence: 0.7, CandidateSlack: 1},
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With slack 1.0 the candidate store holds only confidence-misses.
	e.Candidates().Each(func(r rules.Rule) bool {
		if r.PatternCount < e.MinCount() {
			t.Errorf("slack pool entry despite disabled store: %v", r)
		}
		return true
	})
	// Updates must still be exact.
	a1, _ := rel.Dictionary().Lookup("Annot_1")
	if _, err := e.AddAnnotations([]relation.AnnotationUpdate{{Index: 5, Annotation: a1}}); err != nil {
		t.Fatal(err)
	}
	verify(t, e, "disabled store, case 3")
}

func TestCaseString(t *testing.T) {
	for _, c := range []Case{CaseBootstrap, CaseAnnotatedTuples, CaseUnannotatedTuples, CaseNewAnnotations, Case(9)} {
		if c.String() == "" {
			t.Error("empty case name")
		}
	}
}

// --- Randomized equivalence: the paper's verification methodology. ---

type randomWorld struct {
	rng    *rand.Rand
	rel    *relation.Relation
	annots []itemset.Item
}

func newRandomWorld(rng *rand.Rand, nTuples int) *randomWorld {
	w := &randomWorld{rng: rng, rel: relation.New()}
	dict := w.rel.Dictionary()
	for i := 0; i < 5; i++ {
		w.annots = append(w.annots, relation.MustAnnotation(dict, "Annot_"+string(rune('A'+i))))
	}
	for i := 0; i < nTuples; i++ {
		w.rel.Append(w.randomTuple())
	}
	return w
}

func (w *randomWorld) randomTuple() relation.Tuple {
	var items []itemset.Item
	for v := 0; v < 1+w.rng.Intn(4); v++ {
		items = append(items, itemset.DataItem(1+w.rng.Intn(8)))
	}
	for _, a := range w.annots {
		if w.rng.Intn(3) == 0 {
			items = append(items, a)
		}
	}
	return relation.NewTuple(items...)
}

func (w *randomWorld) randomUnannotatedTuple() relation.Tuple {
	var items []itemset.Item
	for v := 0; v < 1+w.rng.Intn(4); v++ {
		items = append(items, itemset.DataItem(1+w.rng.Intn(8)))
	}
	return relation.NewTuple(items...)
}

func randomCfg(rng *rand.Rand) mining.Config {
	return mining.Config{
		MinSupport:    0.15 + rng.Float64()*0.3,
		MinConfidence: 0.5 + rng.Float64()*0.4,
	}
}

func TestPropertyCase1EquivalentToRemine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func() bool {
		w := newRandomWorld(rng, 20+rng.Intn(40))
		e, err := New(w.rel, randomCfg(rng), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			var batch []relation.Tuple
			for i := 0; i < 1+rng.Intn(15); i++ {
				batch = append(batch, w.randomTuple())
			}
			if _, err := e.AddAnnotatedTuples(batch); err != nil {
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

func TestPropertyCase2EquivalentToRemine(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		w := newRandomWorld(rng, 20+rng.Intn(40))
		e, err := New(w.rel, randomCfg(rng), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			var batch []relation.Tuple
			for i := 0; i < 1+rng.Intn(15); i++ {
				batch = append(batch, w.randomUnannotatedTuple())
			}
			if _, err := e.AddUnannotatedTuples(batch); err != nil {
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

func TestPropertyCase3EquivalentToRemine(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func() bool {
		w := newRandomWorld(rng, 20+rng.Intn(40))
		e, err := New(w.rel, randomCfg(rng), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			var batch []relation.AnnotationUpdate
			for i := 0; i < 1+rng.Intn(10); i++ {
				batch = append(batch, relation.AnnotationUpdate{
					Index:      rng.Intn(w.rel.Len()),
					Annotation: w.annots[rng.Intn(len(w.annots))],
				})
			}
			if _, err := e.AddAnnotations(batch); err != nil {
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

// TestPropertyFigure13VisitsExactlyRaisedPairs checks Figure 13 Step 1 over
// the increment against a brute-force scan: over random attach batches, the
// (X, a) pairs eachRaisedDataRule visits must be exactly the data-catalog
// entries X and relevant changed annotations a whose count(X ∪ {a}) over the
// relation the batch changed. Each batch is applied, checked and undone, then
// applied for real through AddAnnotations, so the engine stays exact.
func TestPropertyFigure13VisitsExactlyRaisedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pairs := 0
	for world := 0; world < 12; world++ {
		w := newRandomWorld(rng, 40+rng.Intn(80))
		e := mustEngine(t, w.rel, mining.Config{MinSupport: 0.1 + rng.Float64()*0.2, MinConfidence: 0.5})
		for round := 0; round < 6; round++ {
			var batch []relation.AnnotationUpdate
			for i := 0; i < 1+rng.Intn(20); i++ {
				batch = append(batch, relation.AnnotationUpdate{
					Index:      rng.Intn(w.rel.Len()),
					Annotation: w.annots[rng.Intn(len(w.annots))],
				})
			}
			prev := w.rel.View()
			if err := e.rel.ApplyDelta(batch, false, &e.delta); err != nil {
				t.Fatal(err)
			}
			applied := slices.Clone(e.delta.Applied)
			e.refreshRelevance()
			got := map[string]bool{}
			if e.indexDelta() {
				e.eachRaisedDataRule(func(r *rules.Rule) {
					if n, ok := e.dataCat.Count(r.LHS); !ok || n != r.LHSCount || r.N != e.n {
						t.Fatalf("world %d round %d: visited %v with LHS count %d of %d, catalog holds %d (%v)", world, round, r, r.LHSCount, r.N, n, ok)
					}
					got[fmt.Sprint(r.LHS, r.RHS)] = true
				})
			}
			want := map[string]bool{}
			e.dataCat.Each(func(x itemset.Itemset, _ int) bool {
				for _, a := range w.annots {
					if !e.relevant.has(a) || !slices.ContainsFunc(applied, func(u relation.AnnotationUpdate) bool { return u.Annotation == a }) {
						continue
					}
					if p := x.Add(a); w.rel.CountPattern(p) != prev.CountPattern(p) {
						want[fmt.Sprint(x, a)] = true
					}
				}
				return true
			})
			if !maps.Equal(got, want) {
				t.Fatalf("world %d round %d: Figure 13 visited %v, the scan raised %v", world, round, got, want)
			}
			pairs += len(want)

			if err := e.rel.ApplyDelta(applied, true, &e.delta); err != nil {
				t.Fatal(err)
			}
			e.refreshRelevance()
			if _, err := e.AddAnnotations(batch); err != nil {
				t.Fatal(err)
			}
			verify(t, e, fmt.Sprintf("world %d round %d", world, round))
		}
	}
	t.Logf("%d raised pairs", pairs)
	if pairs < 100 {
		t.Errorf("only %d raised pairs over all batches; the property is too weak", pairs)
	}
}

func TestPropertyMixedWorkloadEquivalentToRemine(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	f := func() bool {
		w := newRandomWorld(rng, 25+rng.Intn(30))
		e, err := New(w.rel, randomCfg(rng), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			switch rng.Intn(3) {
			case 0:
				var batch []relation.Tuple
				for i := 0; i < 1+rng.Intn(10); i++ {
					batch = append(batch, w.randomTuple())
				}
				if _, err := e.AddAnnotatedTuples(batch); err != nil {
					t.Fatal(err)
				}
			case 1:
				var batch []relation.Tuple
				for i := 0; i < 1+rng.Intn(10); i++ {
					batch = append(batch, w.randomUnannotatedTuple())
				}
				if _, err := e.AddUnannotatedTuples(batch); err != nil {
					t.Fatal(err)
				}
			default:
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
			}
			if err := e.Verify(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFigure11Monotonicity checks the direction-of-change matrix of
// Figure 11 on random relations:
//
//	Case 1 (annotated tuples):    anything may move (no constraint checked).
//	Case 2 (un-annotated tuples): support never increases (both kinds);
//	                              D2A confidence never increases;
//	                              A2A confidence unchanged.
//	Case 3 (new annotations):     D2A support and confidence never decrease;
//	                              A2A support never decreases.
func TestPropertyFigure11Monotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	f := func() bool {
		w := newRandomWorld(rng, 30+rng.Intn(30))
		cfg := randomCfg(rng)
		e, err := New(w.rel, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Track a snapshot of every rule (valid + candidates) pre-update.
		before := e.Rules()
		e.Candidates().Each(func(r rules.Rule) bool { before.Add(r); return true })

		caseKind := rng.Intn(2) // 0 = case 2, 1 = case 3
		if caseKind == 0 {
			var batch []relation.Tuple
			for i := 0; i < 1+rng.Intn(10); i++ {
				batch = append(batch, w.randomUnannotatedTuple())
			}
			if _, err := e.AddUnannotatedTuples(batch); err != nil {
				t.Fatal(err)
			}
		} else {
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
		}
		after := e.Rules()
		e.Candidates().Each(func(r rules.Rule) bool { after.Add(r); return true })

		ok := true
		before.Each(func(old rules.Rule) bool {
			now, present := after.Get(old.ID())
			if !present {
				return true // dropped below the slack pool; nothing to compare
			}
			const eps = 1e-12
			if caseKind == 0 { // Case 2
				if now.Support() > old.Support()+eps {
					ok = false
				}
				if now.Kind() == rules.DataToAnnotation && now.Confidence() > old.Confidence()+eps {
					ok = false
				}
				if now.Kind() == rules.AnnotationToAnnotation && now.Confidence() != old.Confidence() {
					ok = false
				}
			} else { // Case 3
				if now.Support()+eps < old.Support() {
					ok = false
				}
				if now.Kind() == rules.DataToAnnotation && now.Confidence()+eps < old.Confidence() {
					ok = false
				}
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	rel := fixture()
	e := mustEngine(t, rel, defaultCfg())
	dict := rel.Dictionary()
	if _, err := e.AddAnnotatedTuples([]relation.Tuple{relation.MustTuple(dict, []string{"1"}, nil)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddUnannotatedTuples([]relation.Tuple{relation.MustTuple(dict, []string{"2"}, nil)}); err != nil {
		t.Fatal(err)
	}
	a1, _ := dict.Lookup("Annot_1")
	if _, err := e.AddAnnotations([]relation.AnnotationUpdate{{Index: 5, Annotation: a1}}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Case1 != 1 || s.Case2 != 1 || s.Case3 != 1 || s.Bootstraps != 1 {
		t.Errorf("stats = %+v", s)
	}
}
