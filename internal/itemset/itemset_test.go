package itemset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestItemTagging(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name    string
		item    Item
		isData  bool
		isAnnot bool
		isDeriv bool
		id      int
	}{
		{"data", DataItem(17), true, false, false, 17},
		{"annotation", AnnotationItem(3), false, true, false, 3},
		{"derived", DerivedItem(5), false, true, true, 5},
		{"max data id", DataItem(MaxID), true, false, false, MaxID},
		{"max annot id", AnnotationItem(MaxID), false, true, false, MaxID},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.item.IsData(); got != tc.isData {
				t.Errorf("IsData() = %v, want %v", got, tc.isData)
			}
			if got := tc.item.IsAnnotation(); got != tc.isAnnot {
				t.Errorf("IsAnnotation() = %v, want %v", got, tc.isAnnot)
			}
			if got := tc.item.IsDerived(); got != tc.isDeriv {
				t.Errorf("IsDerived() = %v, want %v", got, tc.isDeriv)
			}
			if got := tc.item.ID(); got != tc.id {
				t.Errorf("ID() = %d, want %d", got, tc.id)
			}
			if !tc.item.Valid() {
				t.Errorf("Valid() = false, want true")
			}
		})
	}
}

func TestItemConstructorsPanicOnBadID(t *testing.T) {
	t.Parallel()
	for _, id := range []int{0, -1, MaxID + 1} {
		for name, f := range map[string]func(int) Item{
			"DataItem": DataItem, "AnnotationItem": AnnotationItem, "DerivedItem": DerivedItem,
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) did not panic", name, id)
					}
				}()
				f(id)
			}()
		}
	}
}

func TestNoneIsInvalid(t *testing.T) {
	t.Parallel()
	if None.Valid() {
		t.Error("None.Valid() = true, want false")
	}
	if None.IsData() {
		t.Error("None.IsData() = true, want false")
	}
}

func TestItemOrderingDataBeforeAnnotations(t *testing.T) {
	t.Parallel()
	d := DataItem(MaxID) // largest possible data item
	a := AnnotationItem(1)
	g := DerivedItem(1)
	if !(d < a) {
		t.Errorf("want data < annotation, got %v >= %v", d, a)
	}
	if !(a < g) {
		t.Errorf("want raw annotation < derived annotation, got %v >= %v", a, g)
	}
}

func TestNewCanonicalizes(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		in   []Item
		want Itemset
	}{
		{"empty", nil, nil},
		{"single", []Item{DataItem(4)}, Itemset{DataItem(4)}},
		{"sorts", []Item{DataItem(9), DataItem(2)}, Itemset{DataItem(2), DataItem(9)}},
		{"dedups", []Item{DataItem(2), DataItem(2), DataItem(2)}, Itemset{DataItem(2)}},
		{
			"mixed kinds sort data first",
			[]Item{AnnotationItem(1), DataItem(7), DerivedItem(2), DataItem(1)},
			Itemset{DataItem(1), DataItem(7), AnnotationItem(1), DerivedItem(2)},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := New(tc.in...)
			if !got.Equal(tc.want) {
				t.Errorf("New(%v) = %v, want %v", tc.in, got, tc.want)
			}
			if !got.Wellformed() {
				t.Errorf("New(%v) = %v not wellformed", tc.in, got)
			}
		})
	}
}

func TestContains(t *testing.T) {
	t.Parallel()
	s := New(DataItem(2), DataItem(5), AnnotationItem(1))
	for _, it := range s {
		if !s.Contains(it) {
			t.Errorf("Contains(%v) = false, want true", it)
		}
	}
	for _, it := range []Item{DataItem(1), DataItem(3), DataItem(6), AnnotationItem(2), DerivedItem(1)} {
		if s.Contains(it) {
			t.Errorf("Contains(%v) = true, want false", it)
		}
	}
	if Itemset(nil).Contains(DataItem(1)) {
		t.Error("empty set Contains = true")
	}
}

func TestContainsAll(t *testing.T) {
	t.Parallel()
	s := New(DataItem(1), DataItem(3), DataItem(5), AnnotationItem(2))
	tests := []struct {
		sub  Itemset
		want bool
	}{
		{nil, true},
		{New(DataItem(1)), true},
		{New(DataItem(1), DataItem(5)), true},
		{New(DataItem(1), AnnotationItem(2)), true},
		{s.Clone(), true},
		{New(DataItem(2)), false},
		{New(DataItem(1), DataItem(2)), false},
		{New(DataItem(1), DataItem(3), DataItem(5), AnnotationItem(2), AnnotationItem(9)), false},
	}
	for _, tc := range tests {
		if got := s.ContainsAll(tc.sub); got != tc.want {
			t.Errorf("ContainsAll(%v) = %v, want %v", tc.sub, got, tc.want)
		}
		if got := tc.sub.IsSubsetOf(s); got != tc.want {
			t.Errorf("IsSubsetOf: %v ⊆ %v = %v, want %v", tc.sub, s, got, tc.want)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	t.Parallel()
	a := New(DataItem(1), DataItem(2), DataItem(3))
	b := New(DataItem(2), DataItem(3), DataItem(4))
	if got, want := a.Union(b), New(DataItem(1), DataItem(2), DataItem(3), DataItem(4)); !got.Equal(want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Subtract(b), New(DataItem(1)); !got.Equal(want) {
		t.Errorf("Subtract = %v, want %v", got, want)
	}
	if got := a.Union(nil); !got.Equal(a) {
		t.Errorf("Union(nil) = %v, want %v", got, a)
	}
	if got := Itemset(nil).Union(a); !got.Equal(a) {
		t.Errorf("nil.Union(a) = %v, want %v", got, a)
	}
	if got := a.Subtract(a); !got.Empty() {
		t.Errorf("Subtract(self) = %v, want empty", got)
	}
}

func TestAddRemove(t *testing.T) {
	t.Parallel()
	s := New(DataItem(2), DataItem(4))
	added := s.Add(DataItem(3))
	if want := New(DataItem(2), DataItem(3), DataItem(4)); !added.Equal(want) {
		t.Errorf("Add = %v, want %v", added, want)
	}
	if !s.Equal(New(DataItem(2), DataItem(4))) {
		t.Errorf("Add mutated receiver: %v", s)
	}
	// Adding an existing member returns the receiver unchanged.
	same := s.Add(DataItem(2))
	if &same[0] != &s[0] {
		t.Error("Add of existing member should return receiver without copying")
	}
	removed := added.Remove(DataItem(3))
	if !removed.Equal(s) {
		t.Errorf("Remove = %v, want %v", removed, s)
	}
	// Removing a non-member returns the receiver unchanged.
	same = s.Remove(DataItem(99))
	if &same[0] != &s[0] {
		t.Error("Remove of non-member should return receiver without copying")
	}
}

func TestWithoutIndex(t *testing.T) {
	t.Parallel()
	s := New(DataItem(1), DataItem(2), DataItem(3))
	for i := 0; i < s.Len(); i++ {
		got := s.WithoutIndex(i)
		if got.Len() != 2 {
			t.Fatalf("WithoutIndex(%d) len = %d, want 2", i, got.Len())
		}
		if got.Contains(s[i]) {
			t.Errorf("WithoutIndex(%d) still contains %v", i, s[i])
		}
	}
}

func TestSplitAndAnnotationQueries(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name       string
		set        Itemset
		nAnnots    int
		pureData   bool
		pureAnnots bool
	}{
		{"empty", nil, 0, true, true},
		{"data only", New(DataItem(1), DataItem(2)), 0, true, false},
		{"annots only", New(AnnotationItem(1), DerivedItem(2)), 2, false, true},
		{"mixed", New(DataItem(1), AnnotationItem(1), AnnotationItem(4)), 2, false, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.set.CountAnnotations(); got != tc.nAnnots {
				t.Errorf("CountAnnotations = %d, want %d", got, tc.nAnnots)
			}
			if got := tc.set.PureData(); got != tc.pureData {
				t.Errorf("PureData = %v, want %v", got, tc.pureData)
			}
			if got := tc.set.PureAnnotations(); got != tc.pureAnnots {
				t.Errorf("PureAnnotations = %v, want %v", got, tc.pureAnnots)
			}
			data, annots := tc.set.Split()
			if len(data)+len(annots) != tc.set.Len() {
				t.Errorf("Split lost items: %v + %v from %v", data, annots, tc.set)
			}
			if !data.PureData() {
				t.Errorf("Split data part %v has annotations", data)
			}
			if !annots.PureAnnotations() {
				t.Errorf("Split annotation part %v has data", annots)
			}
			if got := tc.set.HasAnnotation(); got != (tc.nAnnots > 0) {
				t.Errorf("HasAnnotation = %v, want %v", got, tc.nAnnots > 0)
			}
		})
	}
}

func TestKeyRoundTrip(t *testing.T) {
	t.Parallel()
	sets := []Itemset{
		nil,
		New(DataItem(1)),
		New(DataItem(1), DataItem(2), AnnotationItem(7)),
		New(AnnotationItem(1), DerivedItem(9)),
		New(DataItem(MaxID), AnnotationItem(MaxID), DerivedItem(MaxID)),
	}
	seen := map[Key]bool{}
	for _, s := range sets {
		k := s.Key()
		if seen[k] {
			t.Errorf("key collision for %v", s)
		}
		seen[k] = true
		if k.Len() != s.Len() {
			t.Errorf("Key.Len = %d, want %d", k.Len(), s.Len())
		}
		back, err := k.Decode()
		if err != nil {
			t.Fatalf("Decode(%q): %v", k, err)
		}
		if !back.Equal(s) {
			t.Errorf("round trip %v -> %v", s, back)
		}
	}
}

func TestKeyDecodeErrors(t *testing.T) {
	t.Parallel()
	if _, err := Key("abc").Decode(); err == nil {
		t.Error("Decode of odd-length key succeeded, want error")
	}
	// Non-canonical: two identical items.
	dup := New(DataItem(1)).Key() + New(DataItem(1)).Key()
	if _, err := dup.Decode(); err == nil {
		t.Error("Decode of non-canonical key succeeded, want error")
	}
}

func TestCompare(t *testing.T) {
	t.Parallel()
	tests := []struct {
		a, b Itemset
		want int
	}{
		{nil, nil, 0},
		{nil, New(DataItem(1)), -1},
		{New(DataItem(1)), nil, 1},
		{New(DataItem(1)), New(DataItem(1)), 0},
		{New(DataItem(1)), New(DataItem(2)), -1},
		{New(DataItem(2)), New(DataItem(1)), 1},
		{New(DataItem(1)), New(DataItem(1), DataItem(2)), -1},
		{New(DataItem(1), DataItem(3)), New(DataItem(1), DataItem(2)), 1},
	}
	for _, tc := range tests {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPrefixJoin(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		a, b Itemset
		want Itemset
		ok   bool
	}{
		{
			"joinable pair",
			New(DataItem(1), DataItem(2)), New(DataItem(1), DataItem(3)),
			New(DataItem(1), DataItem(2), DataItem(3)), true,
		},
		{
			"singletons always joinable in order",
			New(DataItem(2)), New(DataItem(5)),
			New(DataItem(2), DataItem(5)), true,
		},
		{"wrong order", New(DataItem(5)), New(DataItem(2)), nil, false},
		{"identical", New(DataItem(2)), New(DataItem(2)), nil, false},
		{
			"different prefix",
			New(DataItem(1), DataItem(2)), New(DataItem(3), DataItem(4)),
			nil, false,
		},
		{"length mismatch", New(DataItem(1)), New(DataItem(1), DataItem(2)), nil, false},
		{"empty", nil, nil, nil, false},
		{
			"data joins annotation",
			New(DataItem(1), DataItem(2)), New(DataItem(1), AnnotationItem(1)),
			New(DataItem(1), DataItem(2), AnnotationItem(1)), true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := tc.a.PrefixJoin(tc.b)
			if ok != tc.ok {
				t.Fatalf("PrefixJoin ok = %v, want %v", ok, tc.ok)
			}
			if ok && !got.Equal(tc.want) {
				t.Errorf("PrefixJoin = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestBinomial(t *testing.T) {
	t.Parallel()
	tests := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 1, 5}, {5, 2, 10},
		{10, 3, 120}, {52, 5, 2598960}, {4, 5, 0}, {4, -1, 0},
	}
	for _, tc := range tests {
		if got := Binomial(tc.n, tc.k); got != tc.want {
			t.Errorf("Binomial(%d, %d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
	if got := Binomial(200, 100); got != int64(1)<<62 {
		t.Errorf("Binomial(200,100) = %d, want saturation at 2^62", got)
	}
}

// randomSet produces canonical itemsets for property tests.
func randomSet(r *rand.Rand, maxLen, domain int) Itemset {
	n := r.Intn(maxLen + 1)
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		id := 1 + r.Intn(domain)
		if r.Intn(2) == 0 {
			items = append(items, DataItem(id))
		} else {
			items = append(items, AnnotationItem(id))
		}
	}
	return New(items...)
}

func TestPropertyUnionCommutativeAssociative(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b, c := randomSet(r, 8, 20), randomSet(r, 8, 20), randomSet(r, 8, 20)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		return a.Union(b).Union(c).Equal(a.Union(b.Union(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertySubtractIntersectPartition(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randomSet(r, 10, 15), randomSet(r, 10, 15)
		// (a\b) ∪ (a∩b) == a, and the two parts are disjoint.
		diff, inter := a.Subtract(b), a.Filter(b.Contains)
		if !diff.Union(inter).Equal(a) {
			return false
		}
		return diff.Filter(inter.Contains).Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyKeyInjective(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b := randomSet(r, 10, 25), randomSet(r, 10, 25)
		if a.Equal(b) {
			return a.Key() == b.Key()
		}
		return a.Key() != b.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHashEqualSetsEqualHash(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		s := randomSet(r, 10, 25)
		shuffled := s.Clone()
		rand.New(rand.NewSource(6)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		return New(shuffled...).Hash() == s.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPrefixJoinProducesValidCandidates(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		s := randomSet(r, 6, 12)
		if s.Len() < 2 {
			return true
		}
		// Build all (k-1)-subsets, join each ordered pair, and check every
		// join result is a k-set containing both parents.
		subs := make([]Itemset, s.Len())
		for i := range subs {
			subs[i] = s.WithoutIndex(i)
		}
		for _, a := range subs {
			for _, b := range subs {
				joined, ok := a.PrefixJoin(b)
				if !ok {
					continue
				}
				if joined.Len() != a.Len()+1 || !joined.Wellformed() {
					return false
				}
				if !a.IsSubsetOf(joined) || !b.IsSubsetOf(joined) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFilter(t *testing.T) {
	t.Parallel()
	s := New(DataItem(1), DataItem(2), AnnotationItem(1), DerivedItem(3))
	annots := s.Filter(Item.IsAnnotation)
	if want := New(AnnotationItem(1), DerivedItem(3)); !annots.Equal(want) {
		t.Errorf("Filter annotations = %v, want %v", annots, want)
	}
	raw := s.Filter(func(it Item) bool { return !it.IsDerived() })
	if want := New(DataItem(1), DataItem(2), AnnotationItem(1)); !raw.Equal(want) {
		t.Errorf("Filter non-derived = %v, want %v", raw, want)
	}
}

func TestStringForms(t *testing.T) {
	t.Parallel()
	s := New(DataItem(3), AnnotationItem(2), DerivedItem(1))
	if got, want := s.String(), "{d3 a2 g1}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := Itemset(nil).String(), "{}"; got != want {
		t.Errorf("empty String = %q, want %q", got, want)
	}
	if got, want := None.String(), "∅"; got != want {
		t.Errorf("None.String = %q, want %q", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	s := New(DataItem(1), DataItem(2))
	c := s.Clone()
	c[0] = DataItem(99)
	if s[0] != DataItem(1) {
		t.Error("Clone shares backing array with original")
	}
	if Itemset(nil).Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
}

func TestFromSortedTrustsCaller(t *testing.T) {
	t.Parallel()
	raw := []Item{DataItem(1), DataItem(5), AnnotationItem(2)}
	s := FromSorted(raw)
	if !s.Wellformed() {
		t.Fatal("FromSorted input should be wellformed")
	}
	if !reflect.DeepEqual([]Item(s), raw) {
		t.Error("FromSorted should not copy")
	}
}

func TestWellformedDetectsViolations(t *testing.T) {
	t.Parallel()
	bad := Itemset{DataItem(5), DataItem(1)}
	if bad.Wellformed() {
		t.Error("unsorted set reported wellformed")
	}
	dup := Itemset{DataItem(1), DataItem(1)}
	if dup.Wellformed() {
		t.Error("duplicated set reported wellformed")
	}
}
