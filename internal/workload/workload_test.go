package workload

import (
	"testing"

	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

func smallSpec(seed int64) Spec {
	return Spec{
		Tuples:         800,
		DataDomain:     30,
		ValuesPerTuple: 4,
		Annotations:    6,
		AnnotationRate: 0.1,
		ZipfS:          1.2,
		Seed:           seed,
		Planted: []PlantedRule{
			{LHSData: []string{"28", "85"}, RHS: "Annot_1", Support: 0.45, Confidence: 0.9},
			{LHSAnnots: []string{"Annot_1"}, RHS: "Annot_5", Support: 0.4, Confidence: 0.85},
		},
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Tuples: -1, DataDomain: 10},
		{Tuples: 10, DataDomain: 0},
		{Tuples: 10, DataDomain: 10, ValuesPerTuple: -1},
		{Tuples: 10, DataDomain: 10, AnnotationRate: 1.5},
		{Tuples: 10, DataDomain: 10, Planted: []PlantedRule{{RHS: "A", Support: 0.5, Confidence: 0.9}}},                          // empty LHS
		{Tuples: 10, DataDomain: 10, Planted: []PlantedRule{{LHSData: []string{"1"}, Support: 0.5, Confidence: 0.9}}},            // empty RHS
		{Tuples: 10, DataDomain: 10, Planted: []PlantedRule{{LHSData: []string{"1"}, RHS: "A", Support: 0.95, Confidence: 0.9}}}, // sup > conf
		{Tuples: 10, DataDomain: 10, Planted: []PlantedRule{{LHSData: []string{"1"}, RHS: "A", Support: 0.5, Confidence: 1.2}}},
	}
	for i, s := range bad {
		if _, err := NewGenerator(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if _, err := NewGenerator(smallSpec(1)); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, _ := NewGenerator(smallSpec(7))
	g2, _ := NewGenerator(smallSpec(7))
	r1, err := g1.Generate()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g2.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != r2.Len() {
		t.Fatalf("lengths differ: %d != %d", r1.Len(), r2.Len())
	}
	for i := 0; i < r1.Len(); i++ {
		t1, _ := r1.Tuple(i)
		t2, _ := r2.Tuple(i)
		if !t1.Items().Equal(t2.Items()) {
			t.Fatalf("tuple %d differs between same-seed runs", i)
		}
	}
	// Different seed differs somewhere.
	g3, _ := NewGenerator(smallSpec(8))
	r3, _ := g3.Generate()
	same := true
	for i := 0; i < r1.Len() && i < r3.Len(); i++ {
		t1, _ := r1.Tuple(i)
		t3, _ := r3.Tuple(i)
		if !t1.Items().Equal(t3.Items()) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical relations")
	}
}

func TestGenerateInvariantsAndScale(t *testing.T) {
	g, _ := NewGenerator(smallSpec(3))
	rel, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 800 {
		t.Fatalf("Len = %d", rel.Len())
	}
	if err := rel.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := rel.Stats()
	if st.DistinctAnnots == 0 || st.AnnotatedTuples == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPlantedRulesAreMinable is the point of the generator: planted
// correlations must surface as rules near their target statistics. The
// planted vocabulary here is disjoint from the Annot_1..Annot_K noise
// vocabulary and between rules, so the targets are not shifted by overlap
// (overlap is legal — Default8K uses it deliberately — but makes exact
// statistical assertions impossible).
func TestPlantedRulesAreMinable(t *testing.T) {
	spec := smallSpec(11)
	spec.Planted = []PlantedRule{
		{LHSData: []string{"28", "85"}, RHS: "Annot_R1", Support: 0.45, Confidence: 0.9},
		{LHSAnnots: []string{"Annot_R2"}, RHS: "Annot_R3", Support: 0.4, Confidence: 0.85},
	}
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := mining.Mine(rel, mining.Config{MinSupport: 0.3, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	dict := rel.Dictionary()
	v28, _ := dict.Lookup("28")
	v85, _ := dict.Lookup("85")
	r1, _ := dict.Lookup("Annot_R1")
	r2, _ := dict.Lookup("Annot_R2")
	r3, _ := dict.Lookup("Annot_R3")

	r, ok := res.Rules.Get(rules.Rule{LHS: itemset.New(v28, v85), RHS: r1}.ID())
	if !ok {
		t.Fatal("planted D2A rule not mined")
	}
	if r.Support() < 0.38 || r.Support() > 0.52 {
		t.Errorf("planted support drifted: %v (target 0.45)", r.Support())
	}
	if r.Confidence() < 0.85 || r.Confidence() > 0.95 {
		t.Errorf("planted confidence drifted: %v (target 0.9)", r.Confidence())
	}
	a2a, ok := res.Rules.Get(rules.Rule{LHS: itemset.New(r2), RHS: r3}.ID())
	if !ok {
		t.Fatal("planted A2A rule not mined")
	}
	if a2a.Confidence() < 0.8 || a2a.Confidence() > 0.9 {
		t.Errorf("planted A2A confidence drifted: %v (target 0.85)", a2a.Confidence())
	}
}

func TestGenerateWithWithholding(t *testing.T) {
	g, _ := NewGenerator(smallSpec(13))
	rel, truth, err := g.GenerateWithWithholding(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) == 0 {
		t.Fatal("nothing withheld at 20%")
	}
	// Withheld annotations must actually be absent.
	for idx, want := range truth {
		tu, err := rel.Tuple(idx)
		if err != nil {
			t.Fatalf("truth index %d out of range", idx)
		}
		for _, a := range want {
			if tu.Annots.Contains(a) {
				t.Errorf("tuple %d still carries withheld %v", idx, a)
			}
		}
	}
	// Bad fraction rejected.
	if _, _, err := g.GenerateWithWithholding(1.5); err == nil {
		t.Error("bad withhold fraction accepted")
	}
}

func TestBatches(t *testing.T) {
	g, _ := NewGenerator(smallSpec(17))
	rel, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dict := rel.Dictionary()

	annotated, err := g.AnnotatedTuples(dict, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(annotated) != 50 {
		t.Fatalf("annotated batch len = %d", len(annotated))
	}
	anyAnnots := false
	for _, tu := range annotated {
		if tu.Annotated() {
			anyAnnots = true
		}
	}
	if !anyAnnots {
		t.Error("annotated batch carries no annotations at all")
	}

	plain, err := g.UnannotatedTuples(dict, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range plain {
		if tu.Annotated() {
			t.Fatalf("unannotated batch tuple %d has annotations", i)
		}
	}

	batch, err := g.AnnotationBatch(rel, 40, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 40 {
		t.Fatalf("annotation batch len = %d", len(batch))
	}
	for _, u := range batch {
		if u.Index < 0 || u.Index >= rel.Len() {
			t.Errorf("batch index %d out of range", u.Index)
		}
		if !u.Annotation.IsAnnotation() {
			t.Errorf("batch item %v not an annotation", u.Annotation)
		}
	}
	// Applying the batch through the relation must hold invariants
	// (duplicates are legal and skipped).
	if _, _, err := rel.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	if err := rel.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAnnotationBatchEdgeCases(t *testing.T) {
	g, _ := NewGenerator(smallSpec(19))
	rel := relation.New()
	if batch, err := g.AnnotationBatch(rel, 10, 0.5); err != nil || batch != nil {
		t.Errorf("empty relation: batch=%v err=%v", batch, err)
	}
	rel2, _ := g.Generate()
	if _, err := g.AnnotationBatch(rel2, 10, 1.5); err == nil {
		t.Error("bad reinforce accepted")
	}
	if batch, err := g.AnnotationBatch(rel2, 0, 0.5); err != nil || batch != nil {
		t.Errorf("zero m: batch=%v err=%v", batch, err)
	}
}

func TestDefault8KSpec(t *testing.T) {
	spec := Default8K(1)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.Tuples != 8000 {
		t.Errorf("Tuples = %d, want the paper's 8000", spec.Tuples)
	}
	// It must actually generate (smoke, smaller copy).
	spec.Tuples = 200
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(); err != nil {
		t.Fatal(err)
	}
}

func TestUniformNoiseWhenZipfDisabled(t *testing.T) {
	spec := smallSpec(23)
	spec.ZipfS = 0 // uniform
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != spec.Tuples {
		t.Errorf("Len = %d", rel.Len())
	}
}
