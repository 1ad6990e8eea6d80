package generalize

import (
	"bytes"
	"strings"
	"testing"

	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

const sampleRules = `# Figure 9-style generalization rules
Annot_X : Annot_1, Annot_5
Annot_Y : Annot_4
Annot_Z : Annot_2, Annot_3
`

func TestParse(t *testing.T) {
	rs, err := Parse(strings.NewReader(sampleRules))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rs))
	}
	if rs[0].Label != "Annot_X" || len(rs[0].Sources) != 2 {
		t.Errorf("rule 0 = %+v", rs[0])
	}
	if rs[1].Label != "Annot_Y" || rs[1].Sources[0] != "Annot_4" {
		t.Errorf("rule 1 = %+v", rs[1])
	}
}

func TestParseMergesRepeatedLabels(t *testing.T) {
	in := "L : A\nL : B, A\n"
	rs, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("parsed %d rules, want 1", len(rs))
	}
	if len(rs[0].Sources) != 2 { // A deduplicated
		t.Errorf("sources = %v", rs[0].Sources)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"no colon", "Annot_X Annot_1\n"},
		{"empty label", ": Annot_1\n"},
		{"no sources", "Annot_X :\n"},
		{"only commas", "Annot_X : , ,\n"},
		{"self source", "L : L\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.in)); err == nil {
				t.Errorf("input %q accepted", tc.in)
			}
		})
	}
}

func TestWriteRoundTrip(t *testing.T) {
	rs, err := Parse(strings.NewReader(sampleRules))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, rs); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rs) {
		t.Fatalf("round trip lost rules: %d != %d", len(back), len(rs))
	}
	for i := range rs {
		if back[i].Label != rs[i].Label || strings.Join(back[i].Sources, ",") != strings.Join(rs[i].Sources, ",") {
			t.Errorf("rule %d: %+v != %+v", i, back[i], rs[i])
		}
	}
}

func TestBuildDepths(t *testing.T) {
	rs := []Rule{
		{Label: "Mid_A", Sources: []string{"Annot_1", "Annot_2"}},
		{Label: "Mid_B", Sources: []string{"Annot_3"}},
		{Label: "Top", Sources: []string{"Mid_A", "Mid_B"}},
		{Label: "Super", Sources: []string{"Top", "Annot_9"}},
	}
	h, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	wantDepth := map[string]int{"Mid_A": 1, "Mid_B": 1, "Top": 2, "Super": 3}
	for label, want := range wantDepth {
		if got := h.Depth(label); got != want {
			t.Errorf("Depth(%s) = %d, want %d", label, got, want)
		}
	}
	if h.MaxDepth() != 3 {
		t.Errorf("MaxDepth = %d", h.MaxDepth())
	}
	if got := h.LabelsAtDepth(1); len(got) != 2 || got[0] != "Mid_A" {
		t.Errorf("LabelsAtDepth(1) = %v", got)
	}
	if !h.IsLabel("Top") || h.IsLabel("Annot_1") {
		t.Error("IsLabel wrong")
	}
	// Topological order: every label's label-sources appear earlier.
	seen := map[string]bool{}
	for _, r := range h.Rules() {
		for _, s := range r.Sources {
			if h.IsLabel(s) && !seen[s] {
				t.Errorf("rule %q applied before its source %q", r.Label, s)
			}
		}
		seen[r.Label] = true
	}
}

func TestBuildRejectsCycles(t *testing.T) {
	rs := []Rule{
		{Label: "A", Sources: []string{"B"}},
		{Label: "B", Sources: []string{"C"}},
		{Label: "C", Sources: []string{"A"}},
	}
	if _, err := Build(rs); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestBuildRejectsDuplicateLabels(t *testing.T) {
	rs := []Rule{
		{Label: "A", Sources: []string{"X"}},
		{Label: "A", Sources: []string{"Y"}},
	}
	if _, err := Build(rs); err == nil {
		t.Error("duplicate labels accepted")
	}
}

func fixture() *relation.Relation {
	return relation.FromTokens(
		[][]string{
			{"1", "2"},
			{"1", "3"},
			{"2", "3"},
			{"4"},
			{"1", "4"},
		},
		[][]string{
			{"Annot_1"},
			{"Annot_5"},
			{"Annot_1", "Annot_5"},
			{"Annot_4"},
			nil,
		},
	)
}

func TestApply(t *testing.T) {
	rel := fixture()
	rs, err := Parse(strings.NewReader(sampleRules))
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Apply(rel)
	if err != nil {
		t.Fatal(err)
	}
	// Annot_X applies to tuples 0,1,2 (Annot_1 or Annot_5); Annot_Y to
	// tuple 3; Annot_Z to nothing (Annot_2/Annot_3 absent).
	if res.Attached != 4 {
		t.Errorf("Attached = %d, want 4", res.Attached)
	}
	if res.PerLabel["Annot_X"] != 3 || res.PerLabel["Annot_Y"] != 1 {
		t.Errorf("PerLabel = %v", res.PerLabel)
	}
	if len(res.UnknownSources) != 2 { // Annot_2, Annot_3
		t.Errorf("UnknownSources = %v", res.UnknownSources)
	}
	x, ok := rel.Dictionary().Lookup("Annot_X")
	if !ok || !x.IsDerived() {
		t.Fatal("label not interned as derived")
	}
	if got := rel.Frequency(x); got != 3 {
		t.Errorf("Frequency(Annot_X) = %d, want 3", got)
	}
	// Tuple 2 has both sources but one label.
	tu, _ := rel.Tuple(2)
	n := 0
	for _, a := range tu.Annots {
		if a == x {
			n++
		}
	}
	if n != 1 {
		t.Errorf("label attached %d times to tuple 2", n)
	}
	if err := rel.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyIdempotent(t *testing.T) {
	rel := fixture()
	rs, _ := Parse(strings.NewReader(sampleRules))
	h, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Apply(rel); err != nil {
		t.Fatal(err)
	}
	res2, err := h.Apply(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Attached != 0 {
		t.Errorf("second Apply attached %d labels, want 0", res2.Attached)
	}
}

func TestApplyMultiLevel(t *testing.T) {
	rel := fixture()
	rs := []Rule{
		{Label: "Level1", Sources: []string{"Annot_1"}},
		{Label: "Level2", Sources: []string{"Level1"}},
	}
	h, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Apply(rel)
	if err != nil {
		t.Fatal(err)
	}
	// Annot_1 on tuples 0 and 2 → Level1 on both → Level2 on both.
	if res.PerLabel["Level1"] != 2 || res.PerLabel["Level2"] != 2 {
		t.Errorf("PerLabel = %v", res.PerLabel)
	}
	l2, _ := rel.Dictionary().Lookup("Level2")
	if got := rel.Frequency(l2); got != 2 {
		t.Errorf("Frequency(Level2) = %d", got)
	}
}

func TestApplyNewTuplesAfterwards(t *testing.T) {
	// Annotations arriving after the first Apply are picked up by re-Apply.
	rel := fixture()
	rs, _ := Parse(strings.NewReader(sampleRules))
	h, _ := Build(rs)
	if _, err := h.Apply(rel); err != nil {
		t.Fatal(err)
	}
	a1, _ := rel.Dictionary().Lookup("Annot_1")
	if err := rel.AddAnnotation(4, a1); err != nil {
		t.Fatal(err)
	}
	res, err := h.Apply(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attached != 1 || res.PerLabel["Annot_X"] != 1 {
		t.Errorf("re-Apply = %+v", res)
	}
}

func TestApplyRejectsDataSource(t *testing.T) {
	rel := fixture() // token "1" is a data value
	h, err := Build([]Rule{{Label: "L", Sources: []string{"1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Apply(rel); err == nil {
		t.Error("data-value source accepted")
	}
}

func TestApplyToTuple(t *testing.T) {
	rel := fixture()
	rs := []Rule{
		{Label: "Level1", Sources: []string{"Annot_1"}},
		{Label: "Level2", Sources: []string{"Level1"}},
	}
	h, _ := Build(rs)
	if _, err := h.Apply(rel); err != nil {
		t.Fatal(err)
	}
	dict := rel.Dictionary()
	// A fresh tuple with Annot_1 gains both levels, transitively.
	tu := relation.MustTuple(dict, []string{"9"}, []string{"Annot_1"})
	added, err := h.ApplyToTuple(dict, tu)
	if err != nil {
		t.Fatal(err)
	}
	if added.Len() != 2 {
		t.Errorf("added = %v, want both levels", added)
	}
	// A tuple with no matching source gains nothing.
	tu2 := relation.MustTuple(dict, []string{"9"}, []string{"Annot_4"})
	added2, err := h.ApplyToTuple(dict, tu2)
	if err != nil {
		t.Fatal(err)
	}
	if !added2.Empty() {
		t.Errorf("added = %v, want none", added2)
	}
	// A tuple already carrying the label gains nothing more.
	l1, _ := dict.Lookup("Level1")
	l2, _ := dict.Lookup("Level2")
	tu3 := relation.NewTuple(append(tu.Items().Clone(), l1, l2)...)
	added3, err := h.ApplyToTuple(dict, tu3)
	if err != nil {
		t.Fatal(err)
	}
	if !added3.Empty() {
		t.Errorf("added = %v for fully labeled tuple", added3)
	}
}

// TestGeneralizationRevealsRules is the E8 experiment in miniature: a rule
// that is invisible at the raw-annotation level emerges at the concept
// level. Raw annotations Annot_a and Annot_b each appear on only 2 of 10
// tuples (support 0.2 < 0.4), but their generalization covers 4 of 10.
func TestGeneralizationRevealsRules(t *testing.T) {
	data := make([][]string, 10)
	annots := make([][]string, 10)
	for i := range data {
		data[i] = []string{"7"}
	}
	annots[0] = []string{"Annot_a"}
	annots[1] = []string{"Annot_a"}
	annots[2] = []string{"Annot_b"}
	annots[3] = []string{"Annot_b"}
	rel := relation.FromTokens(data, annots)

	cfg := mining.Config{MinSupport: 0.4, MinConfidence: 0.1}
	before, err := mining.Mine(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if before.Rules.Len() != 0 {
		t.Fatalf("raw-level rules = %v, want none", before.Rules.Sorted())
	}

	h, err := Build([]Rule{{Label: "Annot_Invalid", Sources: []string{"Annot_a", "Annot_b"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Apply(rel); err != nil {
		t.Fatal(err)
	}
	after, err := mining.Mine(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	label, _ := rel.Dictionary().Lookup("Annot_Invalid")
	found := false
	after.Rules.Each(func(r rules.Rule) bool {
		if r.RHS == label {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Errorf("generalized rule not revealed; rules = %v", after.Rules.Sorted())
	}
}
