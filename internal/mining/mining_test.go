package mining

import (
	"math/rand"
	"testing"
	"testing/quick"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// fixture builds the running example: 10 tuples where
//   - {28, 85} strongly implies Annot_1 (Def. 4.2), and
//   - Annot_1 co-occurs with Annot_5 often (Def. 4.3).
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

func lookup(t *testing.T, rel *relation.Relation, tok string) itemset.Item {
	t.Helper()
	it, ok := rel.Dictionary().Lookup(tok)
	if !ok {
		t.Fatalf("token %q not interned", tok)
	}
	return it
}

func TestMineDataToAnnotationRules(t *testing.T) {
	rel := fixture()
	res, err := Mine(rel, Config{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	v28 := lookup(t, rel, "28")
	v85 := lookup(t, rel, "85")
	a1 := lookup(t, rel, "Annot_1")

	// {28,85} ⇒ Annot_1: pattern count 5 of 10 (sup 0.5), LHS count 5,
	// confidence 1.0.
	want := rules.Rule{LHS: itemset.New(v28, v85), RHS: a1, PatternCount: 5, LHSCount: 5, N: 10}
	got, ok := res.Rules.Get(want.ID())
	if !ok {
		t.Fatalf("rule {28,85}=>Annot_1 not mined; rules: %v", res.Rules.Sorted())
	}
	if got.PatternCount != 5 || got.LHSCount != 5 || got.N != 10 {
		t.Errorf("counts = %d/%d/%d, want 5/5/10", got.PatternCount, got.LHSCount, got.N)
	}
	// {28} ⇒ Annot_1: pattern 5, LHS 6 → confidence 0.833 ≥ 0.8, sup 0.5. Valid.
	r28 := rules.Rule{LHS: itemset.New(v28), RHS: a1}
	if _, ok := res.Rules.Get(r28.ID()); !ok {
		t.Errorf("rule {28}=>Annot_1 missing")
	}
	// Every valid rule meets thresholds and validates.
	res.Rules.Each(func(r rules.Rule) bool {
		if err := r.Validate(); err != nil {
			t.Errorf("invalid rule mined: %v (%v)", r, err)
		}
		if !r.Meets(0.4, 0.8) {
			t.Errorf("rule below thresholds: %v", r)
		}
		return true
	})
}

func TestMineAnnotationToAnnotationRules(t *testing.T) {
	rel := fixture()
	res, err := Mine(rel, Config{MinSupport: 0.3, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	a1 := lookup(t, rel, "Annot_1")
	a5 := lookup(t, rel, "Annot_5")
	// Annot_5 ⇒ Annot_1: pattern 3, LHS(Annot_5) 4 → conf 0.75 ≥ 0.7, sup 0.3.
	r := rules.Rule{LHS: itemset.New(a5), RHS: a1}
	got, ok := res.Rules.Get(r.ID())
	if !ok {
		t.Fatalf("rule Annot_5=>Annot_1 not mined; rules: %v", res.Rules.Sorted())
	}
	if got.PatternCount != 3 || got.LHSCount != 4 {
		t.Errorf("counts = %d/%d, want 3/4", got.PatternCount, got.LHSCount)
	}
	// Annot_1 ⇒ Annot_5: conf 3/5 = 0.6 < 0.7 → not valid, but within the
	// slack pool (pattern 3 ≥ slackCount).
	rev := rules.Rule{LHS: itemset.New(a1), RHS: a5}
	if _, ok := res.Rules.Get(rev.ID()); ok {
		t.Error("rule Annot_1=>Annot_5 should fail confidence")
	}
	if _, ok := res.Candidates.Get(rev.ID()); !ok {
		t.Error("rule Annot_1=>Annot_5 should be a near-miss candidate")
	}
}

func TestRulesAndCandidatesDisjoint(t *testing.T) {
	res, err := Mine(fixture(), Config{MinSupport: 0.3, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	res.Candidates.Each(func(r rules.Rule) bool {
		if res.Rules.Has(r.ID()) {
			t.Errorf("rule %v in both sets", r)
		}
		if r.Meets(0.3, 0.7) {
			t.Errorf("candidate %v actually meets thresholds", r)
		}
		return true
	})
}

func TestMineNoMixedRules(t *testing.T) {
	res, err := Mine(fixture(), Config{MinSupport: 0.2, MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	check := func(r rules.Rule) bool {
		if r.Kind() == rules.MixedKind {
			t.Errorf("mixed rule emitted: %v", r)
		}
		if !r.RHS.IsAnnotation() {
			t.Errorf("non-annotation RHS: %v", r)
		}
		return true
	}
	res.Rules.Each(check)
	res.Candidates.Each(check)
}

func TestMineKindSelection(t *testing.T) {
	onlyData, err := Mine(fixture(), Config{MinSupport: 0.3, MinConfidence: 0.5, MineDataRules: true})
	if err != nil {
		t.Fatal(err)
	}
	onlyData.Rules.Each(func(r rules.Rule) bool {
		if r.Kind() != rules.DataToAnnotation {
			t.Errorf("unexpected kind %v with MineDataRules", r.Kind())
		}
		return true
	})
	onlyAnnot, err := Mine(fixture(), Config{MinSupport: 0.3, MinConfidence: 0.5, MineAnnotRules: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	onlyAnnot.Rules.Each(func(r rules.Rule) bool {
		if r.Kind() != rules.AnnotationToAnnotation {
			t.Errorf("unexpected kind %v with MineAnnotRules", r.Kind())
		}
		found = true
		return true
	})
	if !found {
		t.Error("no annotation rules mined")
	}
	// Both flags set mines both.
	both, err := Mine(fixture(), Config{MinSupport: 0.3, MinConfidence: 0.5, MineDataRules: true, MineAnnotRules: true})
	if err != nil {
		t.Fatal(err)
	}
	if both.Rules.OfKind(rules.DataToAnnotation).Len() == 0 || both.Rules.OfKind(rules.AnnotationToAnnotation).Len() == 0 {
		t.Error("both-flags mining missed a family")
	}
}

func TestMineCatalogs(t *testing.T) {
	rel := fixture()
	res, err := Mine(rel, Config{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	v28 := lookup(t, rel, "28")
	v85 := lookup(t, rel, "85")
	a1 := lookup(t, rel, "Annot_1")

	if n, ok := res.DataPatterns.Count(itemset.New(v28, v85)); !ok || n != 5 {
		t.Errorf("data catalog {28,85} = %d, %v; want 5", n, ok)
	}
	res.DataPatterns.Each(func(s itemset.Itemset, _ int) bool {
		if !s.PureData() {
			t.Errorf("annotation leaked into data catalog: %v", s)
		}
		return true
	})
	if n, ok := res.AnnotPatterns.Count(itemset.New(a1)); !ok || n != 5 {
		t.Errorf("annot catalog {Annot_1} = %d, %v; want 5", n, ok)
	}
	res.AnnotPatterns.Each(func(s itemset.Itemset, _ int) bool {
		if !s.PureAnnotations() {
			t.Errorf("data leaked into annotation catalog: %v", s)
		}
		return true
	})
	if res.MinCount != 4 {
		t.Errorf("MinCount = %d, want 4 (0.4×10)", res.MinCount)
	}
	if res.SlackCount != 4 { // 0.8 slack × 0.4 × 10 = 3.2 → 4
		t.Errorf("SlackCount = %d, want 4", res.SlackCount)
	}
}

func TestMineEmptyRelation(t *testing.T) {
	res, err := Mine(relation.New(), Config{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rules.Len() != 0 || res.Candidates.Len() != 0 {
		t.Error("empty relation produced rules")
	}
	if res.N != 0 {
		t.Errorf("N = %d", res.N)
	}
}

func TestMineConfigValidation(t *testing.T) {
	bad := []Config{
		{MinSupport: -0.1},
		{MinSupport: 1.1},
		{MinSupport: 0.5, MinConfidence: -1},
		{MinSupport: 0.5, MinConfidence: 2},
	}
	for _, cfg := range bad {
		if _, err := Mine(relation.New(), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestMineExcludeDerived(t *testing.T) {
	rel := relation.New()
	dict := rel.Dictionary()
	g, err := dict.InternDerived("Annot_X")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tu := relation.MustTuple(dict, []string{"7"}, []string{"Annot_1"})
		rel.Append(tu)
		if err := rel.AddAnnotation(i, g); err != nil {
			t.Fatal(err)
		}
	}
	// Included (default): {7} ⇒ Annot_X is minable.
	res, err := Mine(rel, Config{MinSupport: 0.5, MinConfidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	v7 := lookup(t, rel, "7")
	withG := rules.Rule{LHS: itemset.New(v7), RHS: g}
	if _, ok := res.Rules.Get(withG.ID()); !ok {
		t.Error("derived-RHS rule missing when derived included")
	}
	// Excluded: no rule may mention the derived label.
	res, err = Mine(rel, Config{MinSupport: 0.5, MinConfidence: 0.9, ExcludeDerived: true})
	if err != nil {
		t.Fatal(err)
	}
	res.Rules.Each(func(r rules.Rule) bool {
		if r.RHS.IsDerived() || !r.LHS.Filter(itemset.Item.IsDerived).Empty() {
			t.Errorf("derived item leaked: %v", r)
		}
		return true
	})
}

func TestMaxLenBoundsPatterns(t *testing.T) {
	res, err := Mine(fixture(), Config{MinSupport: 0.2, MinConfidence: 0.5, MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	res.Rules.Each(func(r rules.Rule) bool {
		if r.Pattern().Len() > 2 {
			t.Errorf("pattern exceeds MaxLen: %v", r)
		}
		return true
	})
}

// randomRelation plants correlated and noise tuples.
func randomRelation(rng *rand.Rand) *relation.Relation {
	rel := relation.New()
	dict := rel.Dictionary()
	annots := make([]itemset.Item, 4)
	for i := range annots {
		annots[i] = relation.MustAnnotation(dict, "Annot_"+string(rune('1'+i)))
	}
	n := 30 + rng.Intn(40)
	for i := 0; i < n; i++ {
		var items []itemset.Item
		for v := 0; v < 1+rng.Intn(4); v++ {
			items = append(items, itemset.DataItem(1+rng.Intn(8)))
		}
		for _, a := range annots {
			if rng.Intn(3) == 0 {
				items = append(items, a)
			}
		}
		rel.Append(relation.NewTuple(items...))
	}
	return rel
}

// TestPropertyAprioriAndFPGrowthDriversAgree: the two algorithm backends
// must emit identical rule sets, candidates, and catalogs.
func TestPropertyAprioriAndFPGrowthDriversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func() bool {
		rel := randomRelation(rng)
		sup := 0.15 + rng.Float64()*0.35
		conf := 0.5 + rng.Float64()*0.4
		ap, err := Mine(rel, Config{MinSupport: sup, MinConfidence: conf, Algorithm: AlgorithmApriori})
		if err != nil {
			t.Fatal(err)
		}
		fp, err := Mine(rel, Config{MinSupport: sup, MinConfidence: conf, Algorithm: AlgorithmFPGrowth})
		if err != nil {
			t.Fatal(err)
		}
		if diff := rules.Diff(fp.Rules, ap.Rules, rel.Dictionary()); len(diff) != 0 {
			t.Logf("rule diff (sup=%.3f conf=%.3f): %v", sup, conf, diff)
			return false
		}
		if diff := rules.Diff(fp.Candidates, ap.Candidates, rel.Dictionary()); len(diff) != 0 {
			t.Logf("candidate diff: %v", diff)
			return false
		}
		if !fp.DataPatterns.Equal(ap.DataPatterns) {
			t.Log("data catalogs differ")
			return false
		}
		if !fp.AnnotPatterns.Equal(ap.AnnotPatterns) {
			t.Log("annot catalogs differ")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRuleCountsMatchBruteForce verifies every mined rule's counts
// against direct scans.
func TestPropertyRuleCountsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	f := func() bool {
		rel := randomRelation(rng)
		res, err := Mine(rel, Config{MinSupport: 0.2, MinConfidence: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		check := func(r rules.Rule) bool {
			if rel.CountPattern(r.Pattern()) != r.PatternCount {
				ok = false
				return false
			}
			if rel.CountPattern(r.LHS) != r.LHSCount {
				ok = false
				return false
			}
			if r.N != rel.Len() {
				ok = false
				return false
			}
			return true
		}
		res.Rules.Each(check)
		if ok {
			res.Candidates.Each(check)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCompletenessSmall brute-forces all 1-LHS rules on tiny
// relations and checks none are missed.
func TestPropertyCompletenessSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := func() bool {
		rel := randomRelation(rng)
		sup, conf := 0.25, 0.7
		res, err := Mine(rel, Config{MinSupport: sup, MinConfidence: conf})
		if err != nil {
			t.Fatal(err)
		}
		// Enumerate every (single item, annotation) implication.
		items := map[itemset.Item]bool{}
		rel.Each(func(i int, tu relation.Tuple) bool {
			for _, it := range tu.Items() {
				items[it] = true
			}
			return true
		})
		for lhs := range items {
			for rhs := range items {
				if !rhs.IsAnnotation() || lhs == rhs {
					continue
				}
				// Defs 4.2/4.3: LHS all-data or all-annotation; single-item
				// LHS is always one or the other.
				pattern := itemset.New(lhs, rhs)
				pc := rel.CountPattern(pattern)
				lc := rel.CountPattern(itemset.New(lhs))
				r := rules.Rule{LHS: itemset.New(lhs), RHS: rhs, PatternCount: pc, LHSCount: lc, N: rel.Len()}
				if r.Meets(sup, conf) {
					if _, ok := res.Rules.Get(r.ID()); !ok {
						t.Logf("missing rule %v (pc=%d lc=%d n=%d)", r, pc, lc, rel.Len())
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgorithmApriori.String() != "apriori" || AlgorithmFPGrowth.String() != "fp-growth" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm renders empty")
	}
}

func TestTransactionsProjection(t *testing.T) {
	rel := fixture()
	txns := transactions(rel, false)
	if len(txns) != rel.Len() {
		t.Fatalf("projected %d txns, want %d", len(txns), rel.Len())
	}
	tu, _ := rel.Tuple(0)
	if !txns[0].Equal(tu.Items()) {
		t.Errorf("txn 0 = %v, want %v", txns[0], tu.Items())
	}
}

// TestMineScopedReadLeavesWritesInPlace pins that a full mine does not seal
// the relation: after Mine, attaching an annotation to a tuple in a fresh
// annotation chunk allocates exactly what it allocates on a relation nothing
// captured (the tuple's new set), while after a retained View it also copies
// the chunk.
func TestMineScopedReadLeavesWritesInPlace(t *testing.T) {
	perWrite := func(capture func(*relation.Relation)) float64 {
		data := make([][]string, 600)
		for i := range data {
			data[i] = []string{"28", "85"}
		}
		rel := relation.FromTokens(data, nil)
		a := relation.MustAnnotation(rel.Dictionary(), "Annot_1")
		if err := rel.AddAnnotation(0, a); err != nil {
			t.Fatal(err)
		}
		capture(rel)
		i := 0
		return testing.AllocsPerRun(30, func() {
			i += 16 // the next annotation chunk
			if err := rel.AddAnnotation(i, a); err != nil {
				t.Fatal(err)
			}
		})
	}
	none := perWrite(func(*relation.Relation) {})
	mined := perWrite(func(rel *relation.Relation) {
		for _, alg := range []Algorithm{AlgorithmApriori, AlgorithmFPGrowth} {
			if _, err := Mine(rel, Config{MinSupport: 0.2, MinConfidence: 0.6, Algorithm: alg}); err != nil {
				t.Fatal(err)
			}
		}
	})
	sealed := perWrite(func(rel *relation.Relation) { rel.View() })
	if mined != none {
		t.Errorf("a write after Mine allocates %.1f times, %.1f with no capture: the mine sealed the relation", mined, none)
	}
	if sealed <= none {
		t.Errorf("a write after a View allocates %.1f times, %.1f with no capture: the check cannot see a seal", sealed, none)
	}
}
