package relation

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"annotadb/internal/itemset"
)

func TestDictionaryInternAndLookup(t *testing.T) {
	d := NewDictionary()
	v1, err := d.InternData("28")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := d.InternAnnotation("Annot_1")
	if err != nil {
		t.Fatal(err)
	}
	g1, err := d.InternDerived("Annot_X")
	if err != nil {
		t.Fatal(err)
	}
	if !v1.IsData() || !a1.IsAnnotation() || a1.IsDerived() || !g1.IsDerived() {
		t.Fatalf("kind tags wrong: %v %v %v", v1, a1, g1)
	}
	// Interning again returns the same item.
	v1b, err := d.InternData("28")
	if err != nil || v1b != v1 {
		t.Errorf("re-intern: got %v, %v; want %v, nil", v1b, err, v1)
	}
	// Lookup and reverse lookup.
	if it, ok := d.Lookup("Annot_1"); !ok || it != a1 {
		t.Errorf("Lookup(Annot_1) = %v, %v", it, ok)
	}
	if tok := d.Token(a1); tok != "Annot_1" {
		t.Errorf("Token = %q, want Annot_1", tok)
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Error("Lookup of missing token succeeded")
	}
	if tok, ok := d.TokenOK(itemset.AnnotationItem(999)); ok {
		t.Errorf("TokenOK of unknown item = %q, true", tok)
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
	if d.CountOf(KindData) != 1 || d.CountOf(KindAnnotation) != 1 || d.CountOf(KindDerived) != 1 {
		t.Error("per-kind counts wrong")
	}
}

func TestDictionaryKindConflict(t *testing.T) {
	d := NewDictionary()
	if _, err := d.InternData("tok"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InternAnnotation("tok"); err == nil {
		t.Error("re-interning data token as annotation succeeded, want error")
	}
	if _, err := d.InternDerived("tok"); err == nil {
		t.Error("re-interning data token as derived succeeded, want error")
	}
}

func TestDictionaryEmptyToken(t *testing.T) {
	d := NewDictionary()
	if _, err := d.InternData(""); err == nil {
		t.Error("interning empty token succeeded, want error")
	}
}

func TestDictionaryItemListings(t *testing.T) {
	d := NewDictionary()
	MustData(d, "1")
	MustData(d, "2")
	MustAnnotation(d, "A")
	if _, err := d.InternDerived("G"); err != nil {
		t.Fatal(err)
	}
	if got := d.DataItems().Len(); got != 2 {
		t.Errorf("DataItems len = %d, want 2", got)
	}
	if got := d.AnnotationItems().Len(); got != 1 {
		t.Errorf("AnnotationItems len = %d, want 1", got)
	}
	if got := d.DerivedItems().Len(); got != 1 {
		t.Errorf("DerivedItems len = %d, want 1", got)
	}
	if !d.DataItems().Wellformed() {
		t.Error("DataItems not sorted")
	}
}

func TestDictionaryClone(t *testing.T) {
	d := NewDictionary()
	MustData(d, "x")
	c := d.Clone()
	MustData(c, "y")
	if d.Len() != 1 {
		t.Errorf("clone mutation leaked into original: len=%d", d.Len())
	}
	if c.Len() != 2 {
		t.Errorf("clone len = %d, want 2", c.Len())
	}
	// Items interned before the clone resolve identically.
	it1, _ := d.Lookup("x")
	it2, _ := c.Lookup("x")
	if it1 != it2 {
		t.Error("clone re-encoded existing token")
	}
}

func TestTupleConstructionAndQueries(t *testing.T) {
	d := NewDictionary()
	tu := MustTuple(d, []string{"5", "3", "5"}, []string{"A2", "A1"})
	if tu.Data.Len() != 2 {
		t.Errorf("data deduplication failed: %v", tu.Data)
	}
	if tu.Annots.Len() != 2 {
		t.Errorf("annotations: %v", tu.Annots)
	}
	if !tu.Annotated() {
		t.Error("Annotated = false")
	}
	all := tu.Items()
	if all.Len() != 4 || !all.Wellformed() {
		t.Errorf("Items() = %v", all)
	}
	a1, _ := d.Lookup("A1")
	if !tu.HasAnnotation(a1) {
		t.Error("HasAnnotation(A1) = false")
	}
	v3, _ := d.Lookup("3")
	if !tu.Contains(itemset.New(v3, a1)) {
		t.Error("Contains mixed pattern = false")
	}
	if tu.Contains(itemset.New(itemset.DataItem(999))) {
		t.Error("Contains unknown = true")
	}
	bare := NewTuple()
	if bare.Annotated() {
		t.Error("empty tuple Annotated = true")
	}
	if got := bare.Items(); !got.Empty() {
		t.Errorf("empty tuple Items = %v", got)
	}
}

func buildSample(t *testing.T) *Relation {
	t.Helper()
	// Mirrors the flavor of Figure 4: ID-valued tuples, Annot_k annotations.
	return FromTokens(
		[][]string{
			{"28", "85", "99"},
			{"28", "85", "12"},
			{"41", "85"},
			{"28", "41"},
			{"62"},
		},
		[][]string{
			{"Annot_1", "Annot_5"},
			{"Annot_1"},
			{"Annot_4"},
			nil,
			{"Annot_1", "Annot_4"},
		},
	)
}

func TestRelationAppendAndAccessors(t *testing.T) {
	r := buildSample(t)
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	tu, err := r.Tuple(0)
	if err != nil {
		t.Fatal(err)
	}
	if tu.Data.Len() != 3 || tu.Annots.Len() != 2 {
		t.Errorf("tuple 0 = %v / %v", tu.Data, tu.Annots)
	}
	if _, err := r.Tuple(5); !errors.Is(err, ErrTupleIndex) {
		t.Errorf("Tuple(5) err = %v, want ErrTupleIndex", err)
	}
	if _, err := r.Tuple(-1); !errors.Is(err, ErrTupleIndex) {
		t.Errorf("Tuple(-1) err = %v, want ErrTupleIndex", err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRelationIndexAndFrequency(t *testing.T) {
	r := buildSample(t)
	d := r.Dictionary()
	a1, _ := d.Lookup("Annot_1")
	a4, _ := d.Lookup("Annot_4")
	a5, _ := d.Lookup("Annot_5")

	if got := positions(r.View().Postings(a1)); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 4 {
		t.Errorf("Postings(Annot_1) = %v, want [0 1 4]", got)
	}
	if got := positions(r.View().Postings(a4)); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("Postings(Annot_4) = %v, want [2 4]", got)
	}
	if got := r.Frequency(a5); got != 1 {
		t.Errorf("Frequency(Annot_5) = %d, want 1", got)
	}
	if got := r.Frequency(itemset.AnnotationItem(999)); got != 0 {
		t.Errorf("Frequency(unknown) = %d, want 0", got)
	}
	ft := make(map[itemset.Item]int)
	r.EachFrequency(func(a itemset.Item, n int) { ft[a] = n })
	if len(ft) != 3 || ft[a1] != 3 || ft[a4] != 2 || ft[a5] != 1 {
		t.Errorf("EachFrequency = %v", ft)
	}
	if got := r.Annotations(); got.Len() != 3 || !got.Wellformed() {
		t.Errorf("Annotations = %v", got)
	}
}

func TestAddAnnotation(t *testing.T) {
	r := buildSample(t)
	d := r.Dictionary()
	a9 := MustAnnotation(d, "Annot_9")
	a1, _ := d.Lookup("Annot_1")

	if err := r.AddAnnotation(3, a9); err != nil {
		t.Fatal(err)
	}
	tu, _ := r.Tuple(3)
	if !tu.HasAnnotation(a9) {
		t.Error("annotation not attached")
	}
	if got := r.Frequency(a9); got != 1 {
		t.Errorf("Frequency after add = %d, want 1", got)
	}
	if got := positions(r.View().Postings(a9)); len(got) != 1 || got[0] != 3 {
		t.Errorf("Postings after add = %v", got)
	}
	// Duplicate add fails without mutating.
	v := r.Version()
	if err := r.AddAnnotation(0, a1); !errors.Is(err, ErrDuplicateAnnotation) {
		t.Errorf("duplicate add err = %v, want ErrDuplicateAnnotation", err)
	}
	if r.Version() != v {
		t.Error("failed add bumped version")
	}
	// Out of range.
	if err := r.AddAnnotation(99, a9); !errors.Is(err, ErrTupleIndex) {
		t.Errorf("out-of-range err = %v", err)
	}
	// Non-annotation item.
	v28, _ := d.Lookup("28")
	if err := r.AddAnnotation(0, v28); err == nil {
		t.Error("adding data value as annotation succeeded")
	}
	// Index stays sorted after out-of-order inserts.
	a10 := MustAnnotation(d, "Annot_10")
	for _, i := range []int{4, 0, 2} {
		if err := r.AddAnnotation(i, a10); err != nil {
			t.Fatal(err)
		}
	}
	if got := positions(r.View().Postings(a10)); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Errorf("index unsorted: %v", got)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyUpdatesAtomicity(t *testing.T) {
	r := buildSample(t)
	d := r.Dictionary()
	a9 := MustAnnotation(d, "Annot_9")
	v := r.Version()
	// Batch with one bad index must not apply anything.
	_, _, err := r.ApplyUpdates([]AnnotationUpdate{
		{Index: 0, Annotation: a9},
		{Index: 99, Annotation: a9},
	})
	if !errors.Is(err, ErrTupleIndex) {
		t.Fatalf("err = %v, want ErrTupleIndex", err)
	}
	if r.Version() != v {
		t.Error("failed batch mutated relation")
	}
	tu, _ := r.Tuple(0)
	if tu.HasAnnotation(a9) {
		t.Error("failed batch attached annotation")
	}
}

func TestApplyUpdatesSkipsDuplicates(t *testing.T) {
	r := buildSample(t)
	d := r.Dictionary()
	a1, _ := d.Lookup("Annot_1")
	a9 := MustAnnotation(d, "Annot_9")
	applied, skipped, err := r.ApplyUpdates([]AnnotationUpdate{
		{Index: 0, Annotation: a1}, // already on tuple 0 → skipped
		{Index: 3, Annotation: a9}, // fresh → applied
		{Index: 3, Annotation: a9}, // within-batch duplicate → skipped
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0].Index != 3 {
		t.Errorf("applied = %v", applied)
	}
	if len(skipped) != 2 {
		t.Errorf("skipped = %v", skipped)
	}
	if got := r.Frequency(a9); got != 1 {
		t.Errorf("Frequency = %d, want 1", got)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyUpdatesRejectsDataItems(t *testing.T) {
	r := buildSample(t)
	v28, _ := r.Dictionary().Lookup("28")
	if _, _, err := r.ApplyUpdates([]AnnotationUpdate{{Index: 0, Annotation: v28}}); err == nil {
		t.Error("batch with data item as annotation succeeded")
	}
}

func TestCountPattern(t *testing.T) {
	r := buildSample(t)
	d := r.Dictionary()
	v28, _ := d.Lookup("28")
	v85, _ := d.Lookup("85")
	a1, _ := d.Lookup("Annot_1")

	tests := []struct {
		name    string
		pattern itemset.Itemset
		want    int
	}{
		{"single data", itemset.New(v28), 3},
		{"pair", itemset.New(v28, v85), 2},
		{"data+annot", itemset.New(v28, v85, a1), 2},
		{"annot only", itemset.New(a1), 3},
		{"empty pattern matches all", nil, 5},
	}
	for _, tc := range tests {
		if got := r.CountPattern(tc.pattern); got != tc.want {
			t.Errorf("%s: CountPattern = %d, want %d", tc.name, got, tc.want)
		}
	}
	// Walked along the bitmap of the rarer annotation (Annot_4: 2, 4).
	a4, _ := d.Lookup("Annot_4")
	if got := r.CountPattern(itemset.New(v85, a1, a4)); got != 0 {
		t.Errorf("two-annotation CountPattern = %d, want 0", got)
	}
	if got := r.CountPattern(itemset.New(v85, a4)); got != 1 {
		t.Errorf("indexed CountPattern = %d, want 1", got)
	}
}

func TestEachAndEachFrom(t *testing.T) {
	r := buildSample(t)
	var visited []int
	r.Each(func(i int, tu Tuple) bool {
		visited = append(visited, i)
		return true
	})
	if len(visited) != 5 || visited[0] != 0 || visited[4] != 4 {
		t.Errorf("Each visited %v", visited)
	}
	visited = nil
	r.EachFrom(3, func(i int, tu Tuple) bool {
		visited = append(visited, i)
		return true
	})
	if len(visited) != 2 || visited[0] != 3 {
		t.Errorf("EachFrom(3) visited %v", visited)
	}
	// Early stop.
	visited = nil
	r.Each(func(i int, tu Tuple) bool {
		visited = append(visited, i)
		return false
	})
	if len(visited) != 1 {
		t.Errorf("early stop visited %v", visited)
	}
	// Negative start clamps to zero.
	count := 0
	r.EachFrom(-10, func(int, Tuple) bool { count++; return true })
	if count != 5 {
		t.Errorf("EachFrom(-10) visited %d", count)
	}
}

func TestCloneIsolation(t *testing.T) {
	r := buildSample(t)
	c := r.Clone()
	a9 := MustAnnotation(r.Dictionary(), "Annot_9")
	if err := c.AddAnnotation(0, a9); err != nil {
		t.Fatal(err)
	}
	tu, _ := r.Tuple(0)
	if tu.HasAnnotation(a9) {
		t.Error("clone mutation leaked into original")
	}
	if r.Frequency(a9) != 0 {
		t.Error("clone frequency leaked")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	r := buildSample(t)
	s := r.Stats()
	if s.Tuples != 5 {
		t.Errorf("Tuples = %d", s.Tuples)
	}
	if s.AnnotatedTuples != 4 {
		t.Errorf("AnnotatedTuples = %d, want 4", s.AnnotatedTuples)
	}
	if s.Annotations != 6 {
		t.Errorf("Annotations = %d, want 6", s.Annotations)
	}
	if s.DistinctAnnots != 3 {
		t.Errorf("DistinctAnnots = %d, want 3", s.DistinctAnnots)
	}
	if s.DistinctData != 6 {
		t.Errorf("DistinctData = %d, want 6", s.DistinctData)
	}
	if s.MaxAnnotsPerTuple != 2 {
		t.Errorf("MaxAnnotsPerTuple = %d, want 2", s.MaxAnnotsPerTuple)
	}
}

func TestVersionBumps(t *testing.T) {
	r := New()
	v0 := r.Version()
	r.Append(MustTuple(r.Dictionary(), []string{"1"}, nil))
	if r.Version() == v0 {
		t.Error("Append did not bump version")
	}
	v1 := r.Version()
	a := MustAnnotation(r.Dictionary(), "A")
	if err := r.AddAnnotation(0, a); err != nil {
		t.Fatal(err)
	}
	if r.Version() == v1 {
		t.Error("AddAnnotation did not bump version")
	}
	v2 := r.Version()
	// A batch that applies nothing must not bump.
	if _, _, err := r.ApplyUpdates([]AnnotationUpdate{{Index: 0, Annotation: a}}); err != nil {
		t.Fatal(err)
	}
	if r.Version() != v2 {
		t.Error("no-op batch bumped version")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	r := buildSample(t)
	d := r.Dictionary()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Each(func(i int, tu Tuple) bool { _ = tu.Annotated(); return true })
				r.EachFrequency(func(itemset.Item, int) {})
				_ = r.Stats()
			}
		}()
	}
	// Writer: appends and annotates.
	a := MustAnnotation(d, "Annot_C")
	for i := 0; i < 200; i++ {
		pos := r.Append(MustTuple(d, []string{"7"}, nil))
		if err := r.AddAnnotation(pos, a); err != nil {
			t.Errorf("AddAnnotation: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 205 {
		t.Errorf("Len = %d, want 205", r.Len())
	}
}

// TestPropertyIndexMatchesScan cross-checks the inverted index against a
// brute-force scan over randomized relations and mutation sequences.
func TestPropertyIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		r := New()
		d := r.Dictionary()
		annots := make([]itemset.Item, 4)
		for i := range annots {
			annots[i] = MustAnnotation(d, "A"+string(rune('0'+i)))
		}
		// Random initial tuples.
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			var items []itemset.Item
			for v := 0; v < 1+rng.Intn(4); v++ {
				items = append(items, itemset.DataItem(1+rng.Intn(10)))
			}
			for _, a := range annots {
				if rng.Intn(3) == 0 {
					items = append(items, a)
				}
			}
			r.Append(NewTuple(items...))
		}
		// Random annotation adds (duplicates allowed and ignored).
		for k := 0; k < 20; k++ {
			_ = r.AddAnnotation(rng.Intn(r.Len()), annots[rng.Intn(len(annots))])
		}
		if err := r.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		// Index positions equal scan positions for every annotation.
		for _, a := range annots {
			var scan []int
			r.Each(func(i int, tu Tuple) bool {
				if tu.HasAnnotation(a) {
					scan = append(scan, i)
				}
				return true
			})
			idx := positions(r.View().Postings(a))
			if len(idx) != len(scan) {
				return false
			}
			for i := range idx {
				if idx[i] != scan[i] {
					return false
				}
			}
			if r.Frequency(a) != len(scan) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if KindData.String() != "data" || KindAnnotation.String() != "annotation" || KindDerived.String() != "derived" {
		t.Error("Kind.String names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

// TestFamilyOf pins the one placement rule every layer shares: the family
// is the prefix before the first separator, or the whole token.
func TestFamilyOf(t *testing.T) {
	cases := []struct{ token, want string }{
		{"a:b", "a"},
		{"a:b:c", "a"},
		{":x", ""},
		{"plain", "plain"},
		{"", ""},
		{"Annot_src:db1", "Annot_src"},
		{"Annot_4", "Annot_4"},
		{"Annot_trailing:", "Annot_trailing"},
	}
	for _, c := range cases {
		if got := FamilyOf(c.token); got != c.want {
			t.Errorf("FamilyOf(%q) = %q, want %q", c.token, got, c.want)
		}
	}
}

// TestTupleBuildersAllocateOnlyTheSets pins what building a tuple costs:
// NewTuple and ResolveTuple (over interned tokens) allocate the one array
// both sets share and nothing else, and keep the nil-versus-empty shape —
// no items gives two nil sets, any item two non-nil ones.
func TestTupleBuildersAllocateOnlyTheSets(t *testing.T) {
	d := NewDictionary()
	values, annots := []string{"5", "3", "5", "9"}, []string{"A2", "A1", "A2"}
	want := MustTuple(d, values, annots)
	if !want.Data.Wellformed() || want.Data.Len() != 3 || !want.Annots.Wellformed() || want.Annots.Len() != 2 {
		t.Fatalf("ResolveTuple = %v %v, want 3 sorted values and 2 sorted annotations", want.Data, want.Annots)
	}
	items := append(slices.Clone(want.Annots), want.Data[2], want.Data[0], want.Annots[0], want.Data[1])
	if got := NewTuple(items...); !got.Data.Equal(want.Data) || !got.Annots.Equal(want.Annots) {
		t.Fatalf("NewTuple = %v %v, want %v %v", got.Data, got.Annots, want.Data, want.Annots)
	}
	if n := testing.AllocsPerRun(100, func() { NewTuple(items...) }); n > 1 {
		t.Errorf("NewTuple allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := d.ResolveTuple(values, annots); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("ResolveTuple allocates %v times, want 1", n)
	}
	if tu := NewTuple(items...); cap(tu.Data) != len(tu.Data) {
		t.Errorf("NewTuple data set has capacity %d past its %d items: an append would write the annotations", cap(tu.Data), len(tu.Data))
	}

	shape := func(what string, tu Tuple, nilData, nilAnnots bool) {
		t.Helper()
		if (tu.Data == nil) != nilData || (tu.Annots == nil) != nilAnnots {
			t.Errorf("%s: Data nil = %v, Annots nil = %v; want %v, %v", what, tu.Data == nil, tu.Annots == nil, nilData, nilAnnots)
		}
	}
	resolve := func(values, annots []string) Tuple {
		t.Helper()
		tu, err := d.ResolveTuple(values, annots)
		if err != nil {
			t.Fatal(err)
		}
		return tu
	}
	shape("NewTuple()", NewTuple(), true, true)
	shape("NewTuple(data)", NewTuple(want.Data...), false, false)
	shape("NewTuple(annotations)", NewTuple(want.Annots...), false, false)
	shape("ResolveTuple(nil, nil)", resolve(nil, nil), true, true)
	shape("ResolveTuple(values, nil)", resolve(values, nil), false, false)
	shape("ResolveTuple(nil, annotations)", resolve(nil, annots), false, false)
}

// TestAppendSizesEachBitmapOnce checks that a bulk Append grows each
// bitmap it touches once, to the highest position it sets plus the 25 %
// headroom, and that a one-tuple append past a captured view copies the
// bitmap to the same shape.
func TestAppendSizesEachBitmapOnce(t *testing.T) {
	r := New()
	v, a := MustData(r.Dictionary(), "v"), MustAnnotation(r.Dictionary(), "A")
	batch := make([]Tuple, 1000)
	for i := range batch {
		batch[i] = NewTuple(v, a)
	}
	r.Append(batch...)
	headroom := func(words int) int { return words + words/4 + 1 }
	for _, it := range []itemset.Item{v, a} {
		p := r.st.postingsOf(it)
		if words := 1000/64 + 1; len(p.bits) != words || cap(p.bits) != headroom(words) {
			t.Errorf("%v after a 1000-tuple append: %d words, capacity %d; want %d, %d", it, len(p.bits), cap(p.bits), words, headroom(words))
		}
	}
	old := r.View().Postings(v)
	r.Append(NewTuple(v))
	p := r.st.postingsOf(v)
	if words := 1001/64 + 1; &p.bits[0] == &old.bits[0] || len(p.bits) != words || cap(p.bits) != headroom(words) {
		t.Errorf("one-tuple append past a view: %d words, capacity %d, copied %v; want %d, %d, true", len(p.bits), cap(p.bits), &p.bits[0] != &old.bits[0], words, headroom(words))
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
