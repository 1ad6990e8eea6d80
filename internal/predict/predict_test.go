package predict

import (
	"strings"
	"testing"

	"annotadb/internal/incremental"
	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// fixture: tuples 0-4 carry {28,85}+Annot_1; tuple 5 carries {28,85} but no
// annotation — the recommendation target. Tuple 6 is unrelated.
func fixture() *relation.Relation {
	return relation.FromTokens(
		[][]string{
			{"28", "85", "99"},
			{"28", "85", "12"},
			{"28", "85", "40"},
			{"28", "85", "41"},
			{"28", "85"},
			{"28", "85", "62"},
			{"62", "12"},
		},
		[][]string{
			{"Annot_1"},
			{"Annot_1"},
			{"Annot_1"},
			{"Annot_1"},
			{"Annot_1"},
			nil,
			nil,
		},
	)
}

func minedRules(t *testing.T, rel *relation.Relation) *rules.Set {
	t.Helper()
	res, err := mining.Mine(rel, mining.Config{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return res.Rules
}

func TestScanAllRecommendsMissingAnnotation(t *testing.T) {
	rel := fixture()
	set := minedRules(t, rel)
	rc := NewRecommender(rel, StaticRules{set}, Options{})
	recs := rc.ScanAll()
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	a1, _ := rel.Dictionary().Lookup("Annot_1")
	found := false
	for _, r := range recs {
		if r.TupleIndex == 5 && r.Annotation == a1 {
			found = true
			if r.Rule.Confidence() < 0.8 {
				t.Errorf("supporting rule below threshold: %v", r.Rule)
			}
		}
		// Never recommend an annotation already present.
		tu, _ := rel.Tuple(r.TupleIndex)
		if tu.Annots.Contains(r.Annotation) {
			t.Errorf("recommended existing annotation: %+v", r)
		}
	}
	if !found {
		t.Errorf("tuple 5 not recommended Annot_1; recs = %v", recs)
	}
	// Tuple 6 has no rule LHS → no recommendations.
	for _, r := range recs {
		if r.TupleIndex == 6 {
			t.Errorf("unrelated tuple recommended: %+v", r)
		}
	}
}

func TestScanDeduplicatesToBestRule(t *testing.T) {
	rel := fixture()
	set := minedRules(t, rel)
	// Both {28}⇒Annot_1, {85}⇒Annot_1 and {28,85}⇒Annot_1 may fire on
	// tuple 5; exactly one recommendation must come back, backed by the
	// highest-confidence rule.
	rc := NewRecommender(rel, StaticRules{set}, Options{})
	recs := rc.ScanRange(5, 6)
	if len(recs) != 1 {
		t.Fatalf("got %d recommendations for tuple 5, want 1 (deduplicated): %v", len(recs), recs)
	}
	best := recs[0].Rule
	set.Each(func(r rules.Rule) bool {
		tu, _ := rel.Tuple(5)
		if tu.Contains(r.LHS) && r.RHS == recs[0].Annotation {
			if r.Confidence() > best.Confidence() {
				t.Errorf("better supporting rule existed: %v > %v", r, best)
			}
		}
		return true
	})
}

func TestOnInsertTrigger(t *testing.T) {
	rel := fixture()
	set := minedRules(t, rel)
	rc := NewRecommender(rel, StaticRules{set}, Options{})
	// Insert a batch; the trigger scans only the new tuples.
	start := rel.Append(
		relation.MustTuple(rel.Dictionary(), []string{"28", "85", "77"}, nil),
		relation.MustTuple(rel.Dictionary(), []string{"99"}, nil),
	)
	recs := rc.OnInsert(start)
	if len(recs) != 1 {
		t.Fatalf("trigger produced %d recommendations, want 1: %v", len(recs), recs)
	}
	if recs[0].TupleIndex != start {
		t.Errorf("recommendation for tuple %d, want %d", recs[0].TupleIndex, start)
	}
}

func TestForTuple(t *testing.T) {
	rel := fixture()
	set := minedRules(t, rel)
	rc := NewRecommender(rel, StaticRules{set}, Options{})
	tu := relation.MustTuple(rel.Dictionary(), []string{"28", "85"}, nil)
	recs := rc.ForTuple(tu)
	if len(recs) != 1 || recs[0].TupleIndex != -1 {
		t.Fatalf("ForTuple = %v", recs)
	}
	// A tuple already carrying the annotation gets nothing.
	tu2 := relation.MustTuple(rel.Dictionary(), []string{"28", "85"}, []string{"Annot_1"})
	if recs := rc.ForTuple(tu2); len(recs) != 0 {
		t.Errorf("annotated tuple got %v", recs)
	}
}

func TestOptionsFilters(t *testing.T) {
	rel := fixture()
	set := minedRules(t, rel)

	// Confidence filter above every rule's confidence → nothing.
	rc := NewRecommender(rel, StaticRules{set}, Options{MinConfidence: 1.01})
	if recs := rc.ScanAll(); len(recs) != 0 {
		t.Errorf("MinConfidence filter leaked: %v", recs)
	}
	// Kind filter: only annotation-to-annotation rules (none here).
	rc = NewRecommender(rel, StaticRules{set}, Options{Kinds: []rules.Kind{rules.AnnotationToAnnotation}})
	if recs := rc.ScanAll(); len(recs) != 0 {
		t.Errorf("kind filter leaked: %v", recs)
	}
	// Limit.
	rc = NewRecommender(rel, StaticRules{set}, Options{Limit: 1})
	if recs := rc.ScanAll(); len(recs) > 1 {
		t.Errorf("limit exceeded: %v", recs)
	}
}

func TestExcludeDerived(t *testing.T) {
	rel := fixture()
	dict := rel.Dictionary()
	g, err := dict.InternDerived("Annot_G")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := rel.AddAnnotation(i, g); err != nil {
			t.Fatal(err)
		}
	}
	set := minedRules(t, rel)
	rc := NewRecommender(rel, StaticRules{set}, Options{ExcludeDerived: true})
	for _, r := range rc.ScanAll() {
		if r.Annotation.IsDerived() {
			t.Errorf("derived label recommended despite ExcludeDerived: %+v", r)
		}
	}
	// Included by default.
	rc = NewRecommender(rel, StaticRules{set}, Options{})
	foundDerived := false
	for _, r := range rc.ScanAll() {
		if r.Annotation.IsDerived() {
			foundDerived = true
		}
	}
	if !foundDerived {
		t.Error("derived label never recommended with defaults")
	}
}

func TestRecommendationsAgainstLiveEngine(t *testing.T) {
	// The recommender must see rule updates flowing through the engine.
	rel := fixture()
	eng, err := incremental.New(rel, mining.Config{MinSupport: 0.4, MinConfidence: 0.8}, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRecommender(rel, eng, Options{})
	before := rc.ScanAll()
	if len(before) == 0 {
		t.Fatal("no recommendations before update")
	}
	// Accept the recommendation: add Annot_1 to tuple 5 through the engine.
	a1, _ := rel.Dictionary().Lookup("Annot_1")
	if _, err := eng.AddAnnotations([]relation.AnnotationUpdate{{Index: 5, Annotation: a1}}); err != nil {
		t.Fatal(err)
	}
	after := rc.ScanAll()
	for _, r := range after {
		if r.TupleIndex == 5 && r.Annotation == a1 {
			t.Error("already-accepted recommendation still offered")
		}
	}
}

func TestEvaluate(t *testing.T) {
	a1 := itemset.AnnotationItem(1)
	a2 := itemset.AnnotationItem(2)
	recs := []Recommendation{
		{TupleIndex: 0, Annotation: a1}, // correct
		{TupleIndex: 1, Annotation: a1}, // wrong tuple
		{TupleIndex: 2, Annotation: a2}, // correct
	}
	truth := map[int]itemset.Itemset{
		0: itemset.New(a1),
		2: itemset.New(a1, a2), // a1 here is missed (FN)
	}
	ev := Evaluate(recs, truth)
	if ev.TruePositives != 2 || ev.FalsePositives != 1 || ev.FalseNegatives != 1 {
		t.Fatalf("evaluation = %+v", ev)
	}
	if p := ev.Precision(); p < 0.66 || p > 0.67 {
		t.Errorf("precision = %v", p)
	}
	if r := ev.Recall(); r < 0.66 || r > 0.67 {
		t.Errorf("recall = %v", r)
	}
	if ev.F1() <= 0 {
		t.Error("F1 = 0")
	}
	// Degenerate evaluations.
	empty := Evaluate(nil, nil)
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Error("empty evaluation not all-zero")
	}
}

func TestWithholdAndRecoverEndToEnd(t *testing.T) {
	// E7 in miniature: withhold Annot_1 from two tuples, mine on the rest,
	// and check the recommender recovers them.
	rel := relation.FromTokens(
		[][]string{
			{"28", "85"}, {"28", "85"}, {"28", "85"}, {"28", "85"}, {"28", "85"},
			{"28", "85"}, {"28", "85"}, {"62"}, {"62"}, {"62"},
		},
		[][]string{
			{"Annot_1"}, {"Annot_1"}, {"Annot_1"}, {"Annot_1"}, {"Annot_1"},
			nil, nil, // withheld here
			nil, nil, nil,
		},
	)
	a1, _ := rel.Dictionary().Lookup("Annot_1")
	truth := map[int]itemset.Itemset{
		5: itemset.New(a1),
		6: itemset.New(a1),
	}
	// Withholding 2 of 7 drops {28,85}⇒Annot_1 confidence to 5/7 ≈ 0.714,
	// so mine at a threshold the degraded rule still clears.
	res, err := mining.Mine(rel, mining.Config{MinSupport: 0.4, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRecommender(rel, StaticRules{res.Rules}, Options{})
	ev := Evaluate(rc.ScanAll(), truth)
	if ev.Recall() != 1.0 {
		t.Errorf("recall = %v, want 1.0 (%+v)", ev.Recall(), ev)
	}
	if ev.Precision() != 1.0 {
		t.Errorf("precision = %v, want 1.0 (%+v)", ev.Precision(), ev)
	}
}

func TestRecommendationFormat(t *testing.T) {
	rel := fixture()
	set := minedRules(t, rel)
	rc := NewRecommender(rel, StaticRules{set}, Options{})
	recs := rc.ScanAll()
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	line := Render(rel.Dictionary(), recs)[0].String()
	if !strings.Contains(line, "add Annot_1") || !strings.Contains(line, "because") {
		t.Errorf("String = %q", line)
	}
	free := Recommendation{TupleIndex: -1, Annotation: recs[0].Annotation, Rule: recs[0].Rule}
	if got := Render(rel.Dictionary(), []Recommendation{free})[0].String(); !strings.Contains(got, "incoming tuple") {
		t.Errorf("String = %q", got)
	}
}

func TestScanRangeBounds(t *testing.T) {
	rel := fixture()
	set := minedRules(t, rel)
	rc := NewRecommender(rel, StaticRules{set}, Options{})
	if recs := rc.ScanRange(-5, 100); len(recs) == 0 {
		t.Error("clamped range found nothing")
	}
	if recs := rc.ScanRange(5, 5); len(recs) != 0 {
		t.Errorf("empty range returned %v", recs)
	}
	if recs := rc.ScanRange(6, 2); len(recs) != 0 {
		t.Errorf("inverted range returned %v", recs)
	}
}
