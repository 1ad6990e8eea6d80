package annotadb

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleDataset = `28 85 99 Annot_1 Annot_5
28 85 12 Annot_1 Annot_5
28 85 40 Annot_1 Annot_5
28 85 41 Annot_1
28 85 Annot_1
28 41
41 85 Annot_5
62 12
62 40
99 12
`

func sampleDS(t *testing.T) *Dataset {
	t.Helper()
	ds, err := ReadDataset(strings.NewReader(sampleDataset))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDatasetLifecycle(t *testing.T) {
	ds := sampleDS(t)
	if ds.Len() != 10 {
		t.Fatalf("Len = %d", ds.Len())
	}
	st := ds.Stats()
	if st.Tuples != 10 || st.AnnotatedTuples != 6 || st.Attachments != 9 || st.DistinctAnnotations != 2 {
		t.Errorf("stats = %+v", st)
	}
	values, annots, err := ds.Tuple(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 3 || len(annots) != 2 {
		t.Errorf("tuple 0 = %v / %v", values, annots)
	}
	if _, _, err := ds.Tuple(99); err == nil {
		t.Error("out-of-range tuple read succeeded")
	}
	if got := ds.AnnotationFrequency("Annot_1"); got != 5 {
		t.Errorf("AnnotationFrequency = %d", got)
	}
	if got := ds.AnnotationFrequency("missing"); got != 0 {
		t.Errorf("missing frequency = %d", got)
	}
	// Data values have postings in the relation, but the frequency table
	// and the annotation listing stay annotation-only.
	if got := ds.AnnotationFrequency(values[0]); got != 0 {
		t.Errorf("frequency of data value %q = %d, want 0", values[0], got)
	}
	if got := ds.Annotations(); len(got) != st.DistinctAnnotations {
		t.Errorf("Annotations = %+v, want the %d annotations only", got, st.DistinctAnnotations)
	}
	// Round trip through the file format.
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.Len() {
		t.Errorf("round trip Len = %d", back.Len())
	}
}

func TestDatasetSave(t *testing.T) {
	ds := sampleDS(t)
	path := filepath.Join(t.TempDir(), "data.txt")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.Len() {
		t.Errorf("loaded Len = %d", back.Len())
	}
	if _, err := LoadDataset(filepath.Join(t.TempDir(), "absent.txt")); err == nil {
		t.Error("loading absent file succeeded")
	}
}

// TestDatasetSaveKeepsFileMode pins the install rule's file mode: rewriting
// a 0644 dataset must not leave it with the 0600 of the temp file the new
// contents were written to.
func TestDatasetSaveKeepsFileMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.txt")
	if err := os.WriteFile(path, []byte(sampleDataset), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0o644); err != nil { // independent of the umask
		t.Fatal(err)
	}
	if err := sampleDS(t).Save(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Mode().Perm(); got != 0o644 {
		t.Errorf("mode after Save = %v, want -rw-r--r--", got)
	}
}

func TestAddTuple(t *testing.T) {
	ds := NewDataset()
	pos, err := ds.AddTuple([]string{"1", "2"}, []string{"Annot_1"})
	if err != nil {
		t.Fatal(err)
	}
	if pos != 0 || ds.Len() != 1 {
		t.Errorf("pos=%d len=%d", pos, ds.Len())
	}
	// Token kind conflicts surface as errors.
	if _, err := ds.AddTuple([]string{"Annot_1"}, nil); err == nil {
		t.Error("kind conflict accepted")
	}
}

func TestMine(t *testing.T) {
	ds := sampleDS(t)
	rs, err := Mine(ds, Options{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no rules")
	}
	found := false
	for _, r := range rs {
		if strings.Join(r.LHS, ",") == "28,85" && r.RHS == "Annot_1" {
			found = true
			if r.Kind != DataToAnnotation {
				t.Errorf("kind = %v", r.Kind)
			}
			if r.PatternCount != 5 || r.LHSCount != 5 || r.N != 10 {
				t.Errorf("counts = %d/%d/%d", r.PatternCount, r.LHSCount, r.N)
			}
		}
	}
	if !found {
		t.Errorf("rule {28,85}=>Annot_1 missing from %v", rs)
	}
	// Deterministic ordering.
	again, err := Mine(ds, Options{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if rs[i].String() != again[i].String() {
			t.Fatal("Mine output not deterministic")
		}
	}
}

func TestMineAlgorithmsAgree(t *testing.T) {
	ds := sampleDS(t)
	ap, err := Mine(ds, Options{MinSupport: 0.3, MinConfidence: 0.7, Algorithm: "apriori"})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Mine(ds, Options{MinSupport: 0.3, MinConfidence: 0.7, Algorithm: "fpgrowth"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ap) != len(fp) {
		t.Fatalf("apriori %d rules, fpgrowth %d", len(ap), len(fp))
	}
	for i := range ap {
		if ap[i].String() != fp[i].String() {
			t.Errorf("rule %d differs: %v vs %v", i, ap[i], fp[i])
		}
	}
}

func TestMineRejectsBadOptions(t *testing.T) {
	ds := sampleDS(t)
	if _, err := Mine(ds, Options{MinSupport: -1}); err == nil {
		t.Error("bad support accepted")
	}
	if _, err := Mine(ds, Options{Algorithm: "eclat"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestWriteRulesFormat(t *testing.T) {
	ds := sampleDS(t)
	rs, err := Mine(ds, Options{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRules(&buf, rs, 0.4, 0.8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# association rules (min support 0.4000, min confidence 0.8000)\n") {
		t.Errorf("header missing: %q", out)
	}
	if !strings.Contains(out, "-> Annot_1 (confidence:") {
		t.Errorf("rule lines missing: %q", out)
	}
}

func TestEngineLifecycle(t *testing.T) {
	ds := sampleDS(t)
	eng, err := NewEngine(ds, Options{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.Rules()) == 0 {
		t.Fatal("no rules after bootstrap")
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
	if eng.Dataset() != ds {
		t.Error("Dataset() identity lost")
	}

	// Case 1.
	rep, err := eng.AddTuples([]TupleSpec{
		{Values: []string{"28", "85"}, Annotations: []string{"Annot_1"}},
		{Values: []string{"62"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Operation, "case1") {
		t.Errorf("operation = %q", rep.Operation)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}

	// Case 2 (all un-annotated routes to the cheap path).
	rep, err = eng.AddTuples([]TupleSpec{{Values: []string{"99", "12"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Operation, "case2") {
		t.Errorf("operation = %q", rep.Operation)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}

	// Case 3.
	rep, err = eng.AddAnnotations([]AnnotationUpdate{
		{Tuple: 5, Annotation: "Annot_1"},
		{Tuple: 5, Annotation: "Annot_1"}, // duplicate
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 1 || rep.Skipped != 1 {
		t.Errorf("report = %+v", rep)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(eng.Candidates()) == 0 {
		t.Log("note: candidate store empty (allowed, workload-dependent)")
	}
}

func TestEngineApplyUpdateFile(t *testing.T) {
	ds := sampleDS(t)
	eng, err := NewEngine(ds, Options{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 14 format, 1-based: annotate the 6th tuple.
	rep, err := eng.ApplyUpdateFile(strings.NewReader("6:Annot_1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 1 {
		t.Errorf("report = %+v", rep)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyUpdateFile(strings.NewReader("999:Annot_1\n")); err == nil {
		t.Error("out-of-range update file accepted")
	}
	if _, err := eng.ApplyUpdateFile(strings.NewReader("not-a-line\n")); err == nil {
		t.Error("malformed update file accepted")
	}
}

func TestEngineRecommendations(t *testing.T) {
	ds := sampleDS(t)
	eng, err := NewEngine(ds, Options{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	recs := eng.RecommendAll(RecommendOptions{})
	// Tuple 5 is {28,41} — carries 28 (LHS of {28}=>Annot_1 if valid) but
	// no Annot_1; at these thresholds {28}=>Annot_1 has conf 5/6 ≥ 0.8.
	found := false
	for _, r := range recs {
		if r.Tuple == 5 && r.Annotation == "Annot_1" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected recommendation for tuple 5; got %v", recs)
	}
	// Range and option plumbing.
	if got := eng.RecommendRange(5, 6, RecommendOptions{}); len(got) == 0 {
		t.Error("RecommendRange found nothing")
	}
	if got := eng.RecommendAll(RecommendOptions{MinConfidence: 1.01}); len(got) != 0 {
		t.Errorf("confidence filter leaked: %v", got)
	}
	if got := eng.RecommendAll(RecommendOptions{Limit: 1}); len(got) > 1 {
		t.Errorf("limit leaked: %v", got)
	}
	// Pre-insertion recommendation.
	pre, err := eng.RecommendForTuple(TupleSpec{Values: []string{"28", "85"}}, RecommendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pre) == 0 || pre[0].Tuple != -1 {
		t.Errorf("RecommendForTuple = %v", pre)
	}
	if !strings.Contains(pre[0].String(), "incoming tuple") {
		t.Errorf("String = %q", pre[0].String())
	}
}

func TestEngineTrigger(t *testing.T) {
	ds := sampleDS(t)
	eng, err := NewEngine(ds, Options{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rep, recs, err := eng.AddTuplesWithTrigger([]TupleSpec{
		{Values: []string{"28", "85", "77"}}, // rule LHS, missing RHS
		{Values: []string{"77"}},
	}, RecommendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 2 {
		t.Errorf("report = %+v", rep)
	}
	if len(recs) != 1 || recs[0].Tuple != 10 || recs[0].Annotation != "Annot_1" {
		t.Errorf("trigger recs = %v", recs)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralizationsThroughDataset(t *testing.T) {
	ds := sampleDS(t)
	gens, err := ParseGeneralizations(strings.NewReader("Annot_X : Annot_1, Annot_5\n"))
	if err != nil {
		t.Fatal(err)
	}
	repG, err := ds.ApplyGeneralizations(gens)
	if err != nil {
		t.Fatal(err)
	}
	// Tuples 0-4 carry Annot_1 and tuple 6 carries Annot_5 → 6 labels.
	if repG.Attached != 6 {
		t.Errorf("Attached = %d, want 6", repG.Attached)
	}
	if got := ds.AnnotationFrequency("Annot_X"); got != repG.Attached {
		t.Errorf("frequency %d != attached %d", got, repG.Attached)
	}
	// Idempotent.
	repG2, err := ds.ApplyGeneralizations(gens)
	if err != nil {
		t.Fatal(err)
	}
	if repG2.Attached != 0 {
		t.Errorf("second apply attached %d", repG2.Attached)
	}
	// Derived labels appear in Annotations() flagged as derived.
	foundDerived := false
	for _, a := range ds.Annotations() {
		if a.Token == "Annot_X" && a.Derived {
			foundDerived = true
		}
	}
	if !foundDerived {
		t.Error("derived label missing from Annotations()")
	}
}

func TestGeneralizationsThroughEngine(t *testing.T) {
	ds := sampleDS(t)
	eng, err := NewEngine(ds, Options{MinSupport: 0.4, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	gens := []Generalization{{Label: "Annot_X", Sources: []string{"Annot_1", "Annot_5"}}}
	rep, err := eng.ApplyGeneralizations(gens)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attached == 0 || rep.Update == nil {
		t.Fatalf("report = %+v", rep)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
	// Rules over the extended database may now use the label.
	foundLabelRule := false
	for _, r := range eng.Rules() {
		if r.RHS == "Annot_X" {
			foundLabelRule = true
		}
	}
	if !foundLabelRule {
		t.Error("no rule with generalized RHS after extension")
	}
	// Second application is a no-op with no update report.
	rep2, err := eng.ApplyGeneralizations(gens)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Attached != 0 || rep2.Update != nil {
		t.Errorf("second apply = %+v", rep2)
	}
}

func TestExcludeGeneralizationsOption(t *testing.T) {
	ds := sampleDS(t)
	gens := []Generalization{{Label: "Annot_X", Sources: []string{"Annot_1"}}}
	if _, err := ds.ApplyGeneralizations(gens); err != nil {
		t.Fatal(err)
	}
	rs, err := Mine(ds, Options{MinSupport: 0.4, MinConfidence: 0.8, ExcludeGeneralizations: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.RHS == "Annot_X" {
			t.Errorf("generalization leaked into rules: %v", r)
		}
		for _, l := range r.LHS {
			if l == "Annot_X" {
				t.Errorf("generalization leaked into LHS: %v", r)
			}
		}
	}
}

func TestRuleStringMatchesFigure7(t *testing.T) {
	r := Rule{LHS: []string{"28", "85"}, RHS: "Annot_1", Support: 0.4194, Confidence: 0.9659}
	got := r.String()
	if got != "28, 85 -> Annot_1 (confidence: 0.9659, support: 0.4194)" {
		t.Errorf("String = %q", got)
	}
}
