package rules

import (
	"math/rand"
	"strings"
	"testing"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

func d(id int) itemset.Item { return itemset.DataItem(id) }
func a(id int) itemset.Item { return itemset.AnnotationItem(id) }

func sampleRule() Rule {
	return Rule{
		LHS:          itemset.New(d(1), d(2)),
		RHS:          a(1),
		PatternCount: 42,
		LHSCount:     50,
		N:            100,
	}
}

func TestRuleMath(t *testing.T) {
	r := sampleRule()
	if got := r.Support(); got != 0.42 {
		t.Errorf("Support = %v, want 0.42", got)
	}
	if got := r.Confidence(); got != 0.84 {
		t.Errorf("Confidence = %v, want 0.84", got)
	}
	if got := r.Pattern(); !got.Equal(itemset.New(d(1), d(2), a(1))) {
		t.Errorf("Pattern = %v", got)
	}
	// Degenerate denominators.
	zero := Rule{LHS: itemset.New(d(1)), RHS: a(1)}
	if zero.Support() != 0 || zero.Confidence() != 0 {
		t.Error("zero-count rule should have zero support and confidence")
	}
}

func TestRuleKind(t *testing.T) {
	tests := []struct {
		name string
		lhs  itemset.Itemset
		want Kind
	}{
		{"data LHS", itemset.New(d(1), d(2)), DataToAnnotation},
		{"annot LHS", itemset.New(a(2), a(3)), AnnotationToAnnotation},
		{"derived LHS", itemset.New(itemset.DerivedItem(1)), AnnotationToAnnotation},
		{"mixed LHS", itemset.New(d(1), a(2)), MixedKind},
	}
	for _, tc := range tests {
		r := Rule{LHS: tc.lhs, RHS: a(1)}
		if got := r.Kind(); got != tc.want {
			t.Errorf("%s: Kind = %v, want %v", tc.name, got, tc.want)
		}
	}
	for _, k := range []Kind{DataToAnnotation, AnnotationToAnnotation, MixedKind, Kind(9)} {
		if k.String() == "" {
			t.Error("Kind.String empty")
		}
	}
}

func TestMeetsExactThresholds(t *testing.T) {
	// support = 2/5 = 0.4 exactly, confidence = 2/2 = 1.0 exactly.
	r := Rule{LHS: itemset.New(d(1)), RHS: a(1), PatternCount: 2, LHSCount: 2, N: 5}
	if !r.Meets(0.4, 1.0) {
		t.Error("rule at exact thresholds rejected")
	}
	if r.Meets(0.41, 1.0) {
		t.Error("rule below support accepted")
	}
	if r.Meets(0.4, 1.01) {
		t.Error("rule below confidence accepted")
	}
	// Thirds: 1/3 support with minsup 1/3 must pass despite float rounding.
	r2 := Rule{LHS: itemset.New(d(1)), RHS: a(1), PatternCount: 1, LHSCount: 1, N: 3}
	if !r2.Meets(1.0/3.0, 1.0) {
		t.Error("1/3 support rejected at minsup 1/3")
	}
	// Zero LHS count can never meet confidence.
	r3 := Rule{LHS: itemset.New(d(1)), RHS: a(1), PatternCount: 0, LHSCount: 0, N: 3}
	if r3.Meets(0, 0) {
		t.Error("zero-LHS rule accepted")
	}
}

func TestRuleValidate(t *testing.T) {
	good := sampleRule()
	if err := good.Validate(); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Rule)
	}{
		{"data RHS", func(r *Rule) { r.RHS = d(9) }},
		{"empty LHS", func(r *Rule) { r.LHS = nil }},
		{"RHS in LHS", func(r *Rule) { r.LHS = r.LHS.Add(r.RHS) }},
		{"pattern > LHS count", func(r *Rule) { r.PatternCount = r.LHSCount + 1 }},
		{"LHS count > N", func(r *Rule) { r.LHSCount = r.N + 1; r.PatternCount = r.N + 1 }},
		{"negative count", func(r *Rule) { r.PatternCount = -1 }},
		{"mixed LHS", func(r *Rule) { r.LHS = itemset.New(d(1), a(5)) }},
		{"non-canonical LHS", func(r *Rule) { r.LHS = itemset.Itemset{d(2), d(1)} }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := sampleRule()
			tc.mutate(&r)
			if err := r.Validate(); err == nil {
				t.Errorf("invalid rule accepted: %v", r)
			}
		})
	}
}

func TestRuleIDIdentity(t *testing.T) {
	r1 := sampleRule()
	r2 := sampleRule()
	r2.PatternCount = 1 // counts don't affect identity
	if r1.ID() != r2.ID() {
		t.Error("same implication, different IDs")
	}
	r3 := sampleRule()
	r3.RHS = a(2)
	if r1.ID() == r3.ID() {
		t.Error("different RHS, same ID")
	}
	r4 := sampleRule()
	r4.LHS = itemset.New(d(1))
	if r1.ID() == r4.ID() {
		t.Error("different LHS, same ID")
	}
	// LHS {d1,d2} ⇒ a1 must differ from LHS {d1} ⇒ some annotation whose
	// encoding could collide if the ID simply concatenated bytes without
	// the LHS/RHS split.
	r5 := Rule{LHS: itemset.New(d(1), d(2)), RHS: a(1)}
	r6 := Rule{LHS: itemset.New(d(1)), RHS: a(1)}
	if r5.ID() == r6.ID() {
		t.Error("prefix LHS collision")
	}
}

// randomRule draws a rule with a data or annotation LHS of one to four items
// and ids wide enough to use every byte of the encoding.
func randomRule(rng *rand.Rand) Rule {
	id := func() int { return 1 + rng.Intn(1<<20) }
	var lhs []itemset.Item
	for k := 1 + rng.Intn(4); k > 0; k-- {
		switch rng.Intn(3) {
		case 0:
			lhs = append(lhs, d(id()))
		case 1:
			lhs = append(lhs, a(id()))
		default:
			lhs = append(lhs, itemset.DerivedItem(id()))
		}
	}
	rhs := a(id())
	if rng.Intn(4) == 0 {
		rhs = itemset.DerivedItem(id())
	}
	return Rule{LHS: itemset.New(lhs...).Remove(rhs), RHS: rhs, PatternCount: rng.Intn(9), LHSCount: 9, N: 20}
}

// TestAppendIDMatchesID pins the identity bytes: AppendID writes exactly
// ID's bytes, which are the LHS's itemset key followed by the RHS's, after
// whatever the buffer already holds.
func TestAppendIDMatchesID(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := []byte("prefix")
	for i := 0; i < 500; i++ {
		r := randomRule(rng)
		id := r.ID()
		if got := r.AppendID(nil); string(got) != string(id) {
			t.Fatalf("%v: AppendID(nil) = %x, ID = %x", r, got, id)
		}
		if want := string(r.LHS.Key()) + string(itemset.New(r.RHS).Key()); string(id) != want {
			t.Fatalf("%v: ID = %x, want LHS key + RHS key %x", r, id, want)
		}
		if got := r.AppendID(buf[:6]); string(got) != "prefix"+string(id) {
			t.Fatalf("%v: AppendID after a prefix = %x", r, got)
		}
	}
}

// TestHasIDAgreesWithHas probes random sets with rules in and out of them.
func TestHasIDAgreesWithHas(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 20; round++ {
		s := NewSet()
		var probes []Rule
		for i := 0; i < 50; i++ {
			r := randomRule(rng)
			if rng.Intn(2) == 0 {
				s.Add(r)
			}
			probes = append(probes, r)
		}
		var buf []byte
		for _, r := range probes {
			buf = r.AppendID(buf[:0])
			if got, want := s.HasID(buf), s.Has(r.ID()); got != want {
				t.Fatalf("round %d: HasID(%v) = %v, Has = %v", round, r, got, want)
			}
		}
	}
}

// TestRuleIdentityAllocations: a probe through a reused buffer allocates
// nothing, and ID allocates its string only.
func TestRuleIdentityAllocations(t *testing.T) {
	s := NewSet()
	r := sampleRule()
	s.Add(r)
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		buf = r.AppendID(buf[:0])
		if !s.HasID(buf) {
			t.Fatal("rule missing")
		}
	}); n != 0 {
		t.Errorf("AppendID + HasID: %v allocations, want 0", n)
	}
	var id RuleID
	if n := testing.AllocsPerRun(100, func() { id = r.ID() }); n != 1 {
		t.Errorf("ID: %v allocations, want 1", n)
	}
	_ = id
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	r := sampleRule()
	s.Add(r)
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	got, ok := s.Get(r.ID())
	if !ok || got.PatternCount != 42 {
		t.Errorf("Get = %v, %v", got, ok)
	}
	if !s.Has(r.ID()) {
		t.Error("Has = false")
	}
	// Add with same identity replaces.
	r.PatternCount = 43
	s.Add(r)
	if s.Len() != 1 {
		t.Errorf("Len after replace = %d", s.Len())
	}
	got, _ = s.Get(r.ID())
	if got.PatternCount != 43 {
		t.Errorf("replace did not update counts: %d", got.PatternCount)
	}
	if !s.Remove(r.ID()) {
		t.Error("Remove = false")
	}
	if s.Remove(r.ID()) {
		t.Error("second Remove = true")
	}
	if s.Len() != 0 {
		t.Errorf("Len after remove = %d", s.Len())
	}
}

func TestSetUpdate(t *testing.T) {
	s := NewSet()
	r := sampleRule()
	s.Add(r)
	ok := s.Update(r.ID(), func(r Rule) Rule {
		r.PatternCount++
		return r
	})
	if !ok {
		t.Fatal("Update = false")
	}
	got, _ := s.Get(r.ID())
	if got.PatternCount != 43 {
		t.Errorf("PatternCount = %d, want 43", got.PatternCount)
	}
	if s.Update(RuleID("nope"), func(r Rule) Rule { return r }) {
		t.Error("Update of missing rule = true")
	}
}

// TestSetRewrite pins Rewrite's contract: counts change in place, every rule
// keeps the identity it was stored under, and a rule the callback reports
// unchanged is not written back even if the callback touched its copy.
func TestSetRewrite(t *testing.T) {
	s := NewSet()
	grow := Rule{LHS: itemset.New(d(1)), RHS: a(1), PatternCount: 5, LHSCount: 6, N: 10}
	scribble := Rule{LHS: itemset.New(a(2)), RHS: a(1), PatternCount: 3, LHSCount: 5, N: 10}
	keep := Rule{LHS: itemset.New(d(1), d(2)), RHS: a(3), PatternCount: 2, LHSCount: 2, N: 10}
	for _, r := range []Rule{grow, scribble, keep} {
		s.Add(r)
	}
	visits := 0
	s.Rewrite(func(r *Rule) bool {
		visits++
		switch r.ID() {
		case grow.ID():
			r.PatternCount++
			r.N = 11
			return true
		case scribble.ID():
			r.PatternCount = 99
			return false
		}
		return false
	})
	if visits != 3 {
		t.Errorf("Rewrite visited %d rules, want 3", visits)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d after Rewrite, want 3", s.Len())
	}
	for id, r := range s.byID {
		if r.ID() != id {
			t.Errorf("rule %v stored under %q, its identity is %q", r, id, r.ID())
		}
	}
	want := map[RuleID]Rule{
		grow.ID():     {LHS: grow.LHS, RHS: grow.RHS, PatternCount: 6, LHSCount: 6, N: 11},
		scribble.ID(): scribble,
		keep.ID():     keep,
	}
	for id, w := range want {
		got, ok := s.Get(id)
		if !ok {
			t.Fatalf("rule %v lost its identity", w)
		}
		if got.PatternCount != w.PatternCount || got.LHSCount != w.LHSCount || got.N != w.N {
			t.Errorf("after Rewrite %v, want %v", got, w)
		}
	}
}

func TestSetSortedDeterministic(t *testing.T) {
	s := NewSet()
	s.Add(Rule{LHS: itemset.New(a(1)), RHS: a(2), PatternCount: 1, LHSCount: 1, N: 10})
	s.Add(Rule{LHS: itemset.New(d(5)), RHS: a(1), PatternCount: 1, LHSCount: 1, N: 10})
	s.Add(Rule{LHS: itemset.New(d(1), d(2)), RHS: a(1), PatternCount: 1, LHSCount: 1, N: 10})
	s.Add(Rule{LHS: itemset.New(d(1)), RHS: a(3), PatternCount: 1, LHSCount: 1, N: 10})
	s.Add(Rule{LHS: itemset.New(d(1)), RHS: a(1), PatternCount: 1, LHSCount: 1, N: 10})

	got := s.Sorted()
	// Data-to-annotation rules first, then annotation-to-annotation.
	if got[len(got)-1].Kind() != AnnotationToAnnotation {
		t.Errorf("last rule kind = %v", got[len(got)-1].Kind())
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Kind() > b.Kind() {
			t.Errorf("kind order violated at %d", i)
		}
		if a.Kind() == b.Kind() {
			if c := a.LHS.Compare(b.LHS); c > 0 || (c == 0 && a.RHS >= b.RHS) {
				t.Errorf("order violated at %d: %v before %v", i, a, b)
			}
		}
	}
	// Stability across repeated calls.
	again := s.Sorted()
	for i := range got {
		if got[i].ID() != again[i].ID() {
			t.Fatal("Sorted not deterministic")
		}
	}
}

func TestSetCloneOfKindFilter(t *testing.T) {
	s := NewSet()
	s.Add(Rule{LHS: itemset.New(d(1)), RHS: a(1), PatternCount: 5, LHSCount: 5, N: 10})
	s.Add(Rule{LHS: itemset.New(a(2)), RHS: a(1), PatternCount: 3, LHSCount: 5, N: 10})

	c := s.Clone()
	c.Add(Rule{LHS: itemset.New(d(9)), RHS: a(1), PatternCount: 1, LHSCount: 1, N: 10})
	if s.Len() != 2 || c.Len() != 3 {
		t.Errorf("clone not independent: %d, %d", s.Len(), c.Len())
	}

	d2a := s.OfKind(DataToAnnotation)
	if d2a.Len() != 1 {
		t.Errorf("OfKind(D2A) len = %d", d2a.Len())
	}
	a2a := s.OfKind(AnnotationToAnnotation)
	if a2a.Len() != 1 {
		t.Errorf("OfKind(A2A) len = %d", a2a.Len())
	}

	high := s.Filter(func(r Rule) bool { return r.Confidence() >= 0.9 })
	if high.Len() != 1 {
		t.Errorf("Filter len = %d", high.Len())
	}
}

func TestSetEachEarlyStop(t *testing.T) {
	s := NewSet()
	s.Add(Rule{LHS: itemset.New(d(1)), RHS: a(1), PatternCount: 1, LHSCount: 1, N: 1})
	s.Add(Rule{LHS: itemset.New(d(2)), RHS: a(1), PatternCount: 1, LHSCount: 1, N: 1})
	n := 0
	s.Each(func(Rule) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestDiff(t *testing.T) {
	mk := func() *Set {
		s := NewSet()
		s.Add(Rule{LHS: itemset.New(d(1)), RHS: a(1), PatternCount: 4, LHSCount: 5, N: 10})
		s.Add(Rule{LHS: itemset.New(a(2)), RHS: a(1), PatternCount: 3, LHSCount: 4, N: 10})
		return s
	}
	if diff := Diff(mk(), mk(), nil); len(diff) != 0 {
		t.Errorf("identical sets diff = %v", diff)
	}
	// Count mismatch.
	got := mk()
	got.Update(Rule{LHS: itemset.New(d(1)), RHS: a(1)}.ID(), func(r Rule) Rule {
		r.PatternCount = 5
		return r
	})
	if diff := Diff(got, mk(), nil); len(diff) != 1 || !strings.Contains(diff[0], "count mismatch") {
		t.Errorf("diff = %v", diff)
	}
	// Missing and extra.
	got = mk()
	got.Remove(Rule{LHS: itemset.New(d(1)), RHS: a(1)}.ID())
	got.Add(Rule{LHS: itemset.New(d(9)), RHS: a(1), PatternCount: 1, LHSCount: 1, N: 10})
	diff := Diff(got, mk(), nil)
	if len(diff) != 2 {
		t.Fatalf("diff = %v", diff)
	}
	joined := strings.Join(diff, "\n")
	if !strings.Contains(joined, "missing rule") || !strings.Contains(joined, "extra rule") {
		t.Errorf("diff = %v", diff)
	}
}

func TestRuleFormat(t *testing.T) {
	dict := relation.NewDictionary()
	v28 := relation.MustData(dict, "28")
	v85 := relation.MustData(dict, "85")
	a1 := relation.MustAnnotation(dict, "Annot_1")

	r := Rule{LHS: itemset.New(v28, v85), RHS: a1, PatternCount: 13, LHSCount: 14, N: 31}
	line := r.Format(dict)
	// Mirrors Figure 7's reading: "the presence of IDs 28 and 85 indicate
	// the presence of Annot_1 with a confidence of 0.9659 and support 0.4194".
	if !strings.Contains(line, "28, 85 -> Annot_1") {
		t.Errorf("Format = %q", line)
	}
	if !strings.Contains(line, "confidence: 0.9286") || !strings.Contains(line, "support: 0.4194") {
		t.Errorf("Format = %q", line)
	}

}

func TestRuleStringForm(t *testing.T) {
	r := sampleRule()
	s := r.String()
	if !strings.Contains(s, "=>") || !strings.Contains(s, "sup 0.4200") {
		t.Errorf("String = %q", s)
	}
}
