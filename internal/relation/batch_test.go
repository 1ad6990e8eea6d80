package relation

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"annotadb/internal/itemset"
)

// wantDelta is a touched tuple as a test states it, by token.
type wantDelta struct {
	index         int
	before, after []string
}

// checkTouched compares a reported delta with the expected tuples: each
// touched tuple once, in index order, with its data values and its exact
// annotation sets before and after the batch.
func checkTouched(t *testing.T, r *Relation, got []TupleDelta, want []wantDelta) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("reported %d tuples %v, want %d", len(got), got, len(want))
	}
	dict := r.Dictionary()
	set := func(tokens []string) itemset.Itemset {
		var items []itemset.Item
		for _, tok := range tokens {
			items = append(items, MustAnnotation(dict, tok))
		}
		return itemset.New(items...)
	}
	for k, w := range want {
		g := got[k]
		tu, err := r.Tuple(w.index)
		if err != nil {
			t.Fatal(err)
		}
		if g.Index != w.index || !g.Data.Equal(tu.Data) || !g.Before.Equal(set(w.before)) || !g.After.Equal(set(w.after)) {
			t.Errorf("touched[%d] = %d %v %v→%v, want %d %v %v→%v", k, g.Index, g.Data, g.Before, g.After,
				w.index, tu.Data, set(w.before), set(w.after))
		}
		if !g.After.Equal(tu.Annots) {
			t.Errorf("touched[%d].After = %v, relation holds %v", k, g.After, tu.Annots)
		}
	}
}

func TestApplyDeltaReportsEachTouchedTupleOnce(t *testing.T) {
	r := buildSample(t)
	dict := r.Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	a4, _ := dict.Lookup("Annot_4")
	a8 := MustAnnotation(dict, "Annot_8")
	a9 := MustAnnotation(dict, "Annot_9")
	batch := []AnnotationUpdate{
		{Index: 3, Annotation: a9},
		{Index: 0, Annotation: a1}, // already on tuple 0 → skipped
		{Index: 3, Annotation: a9}, // within-batch duplicate → skipped
		{Index: 1, Annotation: a4},
		{Index: 3, Annotation: a8}, // tuple 3 touched twice
	}
	wantApplied, wantSkipped, err := r.Clone().ApplyUpdates(batch)
	if err != nil {
		t.Fatal(err)
	}
	var d Delta
	if err := r.ApplyDelta(batch, false, &d); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Applied, wantApplied) || !slices.Equal(d.Skipped, wantSkipped) {
		t.Errorf("applied %v skipped %v; ApplyUpdates gives %v and %v", d.Applied, d.Skipped, wantApplied, wantSkipped)
	}
	checkTouched(t, r, d.Tuples, []wantDelta{
		{1, []string{"Annot_1"}, []string{"Annot_1", "Annot_4"}},
		{3, nil, []string{"Annot_8", "Annot_9"}},
	})

	// The same Delta reused for the reverse batch: detaching tuple 3's two
	// annotations and one that is absent.
	removal := []AnnotationUpdate{
		{Index: 3, Annotation: a8},
		{Index: 2, Annotation: a1}, // absent → skipped
		{Index: 3, Annotation: a9},
		{Index: 3, Annotation: a9}, // already detached by this batch → skipped
	}
	wantApplied, wantSkipped, err = r.Clone().ApplyRemovals(removal)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyDelta(removal, true, &d); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Applied, wantApplied) || !slices.Equal(d.Skipped, wantSkipped) {
		t.Errorf("applied %v skipped %v; ApplyRemovals gives %v and %v", d.Applied, d.Skipped, wantApplied, wantSkipped)
	}
	checkTouched(t, r, d.Tuples, []wantDelta{{3, []string{"Annot_8", "Annot_9"}, nil}})
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaAllSkippedReportsNothing(t *testing.T) {
	r := buildSample(t)
	dict := r.Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	a5, _ := dict.Lookup("Annot_5")
	v, version := r.View(), r.Version()
	for _, tc := range []struct {
		remove bool
		batch  []AnnotationUpdate
	}{
		{false, []AnnotationUpdate{{Index: 0, Annotation: a1}, {Index: 0, Annotation: a5}}},
		{true, []AnnotationUpdate{{Index: 3, Annotation: a1}, {Index: 2, Annotation: a5}}},
	} {
		d := Delta{Tuples: make([]TupleDelta, 3)} // stale content must not leak
		if err := r.ApplyDelta(tc.batch, tc.remove, &d); err != nil {
			t.Fatal(err)
		}
		if len(d.Tuples) != 0 || len(d.Applied) != 0 || len(d.Skipped) != len(tc.batch) {
			t.Errorf("remove=%v: reported %v, applied %v, skipped %d of %d", tc.remove, d.Tuples, d.Applied, len(d.Skipped), len(tc.batch))
		}
	}
	if r.Version() != version || r.View() != v {
		t.Error("an all-skipped batch mutated the relation")
	}
}

func TestApplyDeltaRejectsBadBatch(t *testing.T) {
	r := buildSample(t)
	a9 := MustAnnotation(r.Dictionary(), "Annot_9")
	version := r.Version()
	d := Delta{Tuples: make([]TupleDelta, 2)}
	err := r.ApplyDelta([]AnnotationUpdate{{Index: 0, Annotation: a9}, {Index: 99, Annotation: a9}}, false, &d)
	if !errors.Is(err, ErrTupleIndex) {
		t.Fatalf("err = %v, want ErrTupleIndex", err)
	}
	if r.Version() != version || len(d.Tuples) != 0 || len(d.Applied) != 0 {
		t.Errorf("failed batch mutated the relation or reported %v", d.Tuples)
	}
}

// TestApplyDeltaBeforeIsTheViewsSet pins the no-copy contract: the reported
// before set is the very slice a view captured before the batch reads, and
// the batch leaves it as it was.
func TestApplyDeltaBeforeIsTheViewsSet(t *testing.T) {
	r := viewFixture(t, 100)
	dict := r.Dictionary()
	a := MustAnnotation(dict, "Annot_new")
	b, _ := dict.Lookup("Annot_A")
	v := r.View()
	var batch []AnnotationUpdate
	for i := 0; i < 100; i += 7 {
		batch = append(batch, AnnotationUpdate{Index: i, Annotation: a})
	}
	batch = append(batch, AnnotationUpdate{Index: 7, Annotation: b}, AnnotationUpdate{Index: 14, Annotation: b})
	annotsOf := func(i int) itemset.Itemset {
		tu, err := v.Tuple(i)
		if err != nil {
			t.Fatal(err)
		}
		return tu.Annots
	}
	old := make(map[int]itemset.Itemset)
	for _, u := range batch {
		old[u.Index] = annotsOf(u.Index).Clone()
	}
	var d Delta
	if err := r.ApplyDelta(batch, false, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Tuples) != len(old) {
		t.Fatalf("reported %d tuples, batch touched %d", len(d.Tuples), len(old))
	}
	for _, tu := range d.Tuples {
		seen := annotsOf(tu.Index)
		if !tu.Before.Equal(old[tu.Index]) || !seen.Equal(old[tu.Index]) {
			t.Errorf("tuple %d: before %v, view reads %v, want %v", tu.Index, tu.Before, seen, old[tu.Index])
		}
		if len(seen) > 0 && &tu.Before[0] != &seen[0] {
			t.Errorf("tuple %d: before set is a copy, not the view's slice", tu.Index)
		}
		if !tu.After.Contains(a) {
			t.Errorf("tuple %d: after %v misses %v", tu.Index, tu.After, a)
		}
	}
}

// TestPropertyBatchIndexMatchesScan applies random attach and detach batches
// to random relations and indexes each batch's reported tuples on both sides,
// with one data half the sides share. For random data, annotation, mixed and
// derived patterns:
//   - each side must count as an independent index of that side alone;
//   - Change, after − before, must equal the change of the pattern's count
//     over the whole relation and a scan of the touched tuples' model, and be
//     zero for a pure-data pattern;
//   - a data pattern counted with the positions where an annotation changed
//     must give the change of the pattern with the annotation, which is how
//     Figure 13 counts it.
func TestPropertyBatchIndexMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			r := New()
			dict := r.Dictionary()
			var annots, values []itemset.Item
			for i := 0; i < 6; i++ {
				annots = append(annots, MustAnnotation(dict, fmt.Sprintf("Annot_%d", i)))
			}
			for i := 0; i < 2; i++ {
				g, err := dict.InternDerived(fmt.Sprintf("Label_%d", i))
				if err != nil {
					t.Fatal(err)
				}
				annots = append(annots, g)
			}
			for i := 0; i < 8; i++ {
				values = append(values, MustData(dict, fmt.Sprintf("d%d", i)))
			}
			pick := func(from []itemset.Item, p int) []itemset.Item {
				var out []itemset.Item
				for _, it := range from {
					if rng.Intn(p) == 0 {
						out = append(out, it)
					}
				}
				return out
			}
			n := 150 + rng.Intn(100)
			model := make([]Tuple, n)
			for i := range model {
				model[i] = NewTuple(append(pick(values, 3), pick(annots, 3)...)...)
			}
			r.Append(model...)
			model = slices.Clone(model)

			var d Delta
			var shared, before, after BatchIndex
			for step := 0; step < 60; step++ {
				remove := rng.Intn(2) == 1
				batch := make([]AnnotationUpdate, 1+rng.Intn(40))
				for i := range batch {
					batch[i] = AnnotationUpdate{Index: rng.Intn(n), Annotation: annots[rng.Intn(len(annots))]}
				}
				prev := r.View()
				old := slices.Clone(model)
				if err := r.ApplyDelta(batch, remove, &d); err != nil {
					t.Fatal(err)
				}
				for _, u := range d.Applied {
					if tu := &model[u.Index]; remove {
						tu.Annots = tu.Annots.Remove(u.Annotation)
					} else {
						tu.Annots = tu.Annots.Add(u.Annotation)
					}
				}
				shared.Reset(len(d.Tuples))
				before.Reset(len(d.Tuples))
				after.Reset(len(d.Tuples))
				var touched []int
				for i, tu := range d.Tuples {
					shared.Add(i, tu.Data, tu.Before, tu.After)
					before.Add(i, tu.Data, nil, tu.Before)
					after.Add(i, tu.Data, nil, tu.After)
					touched = append(touched, tu.Index)
				}
				sign := 1
				if remove {
					sign = -1
				}
				for _, a := range annots {
					moved := shared.Changed(a, Postings{})
					var want []int
					for k, i := range touched {
						if model[i].Annots.Contains(a) != old[i].Annots.Contains(a) {
							want = append(want, k)
						}
					}
					if got := positions(moved); !slices.Equal(got, want) || moved.Len() != len(want) {
						t.Fatalf("step %d: %v changed at %v (len %d), want %v", step, a, got, moved.Len(), want)
					}
					for k := 0; k < 4; k++ {
						x := itemset.New(pick(values, 3)...)
						if x.Empty() {
							continue
						}
						var got [1]int
						shared.CountWith(x, []Postings{moved}, got[:])
						if want := sign * shared.Change(x.Add(a)); got[0] != want {
							t.Fatalf("step %d: %v with the positions %v changed at = %d, change of the pattern with it %d", step, x, a, got[0], want)
						}
					}
				}
				for k := 0; k < 40; k++ {
					var pattern itemset.Itemset
					switch k % 4 {
					case 0: // data
						pattern = itemset.New(pick(values, 3)...)
					case 1: // annotation
						pattern = itemset.New(pick(annots[:6], 3)...)
					case 2: // mixed
						pattern = itemset.New(append(pick(values, 4), pick(annots, 4)...)...)
					default: // with a derived label
						pattern = itemset.New(append(pick(annots, 4), annots[6+rng.Intn(2)])...)
					}
					for _, side := range []struct {
						shared, alone BatchSide
					}{{shared.Before(), before.After()}, {shared.After(), after.After()}} {
						if got, want := side.shared.CountPattern(pattern), side.alone.CountPattern(pattern); got != want {
							t.Fatalf("step %d: %v counts %d on a side of the shared index, %d on an index of that side alone", step, pattern, got, want)
						}
					}
					got := shared.Change(pattern)
					if diff := shared.After().CountPattern(pattern) - shared.Before().CountPattern(pattern); got != diff {
						t.Fatalf("step %d: Change(%v) = %d, after − before = %d", step, pattern, got, diff)
					}
					if pattern.PureData() && got != 0 {
						t.Fatalf("step %d: pure-data %v changed by %d", step, pattern, got)
					}
					if whole := r.CountPattern(pattern) - prev.CountPattern(pattern); got != whole {
						t.Fatalf("step %d: change of %v over the batch index = %d, over the relation %d", step, pattern, got, whole)
					}
					scan := 0
					for _, i := range touched {
						if model[i].Contains(pattern) {
							scan++
						}
						if old[i].Contains(pattern) {
							scan--
						}
					}
					if got != scan {
						t.Fatalf("step %d: change of %v over the batch index = %d, scan of the touched tuples %d", step, pattern, got, scan)
					}
				}
			}
			checkStoreAgainstModel(t, "end", &r.st, model, annots, values)
		})
	}
}

func TestBatchIndexReads(t *testing.T) {
	var b BatchIndex
	d1, d2 := itemset.DataItem(1), itemset.DataItem(2)
	a1, g1 := itemset.AnnotationItem(1), itemset.DerivedItem(1)
	for round := 0; round < 2; round++ { // the second round reuses the memory
		b.Reset(130)
		b.Add(0, itemset.New(d1), nil, itemset.New(a1))
		b.Add(64, itemset.New(d1, d2), itemset.New(a1), itemset.New(a1, g1))
		b.Add(129, itemset.New(d2), itemset.New(g1), itemset.New(g1))
		if b.Len() != 130 || b.Before().Len() != 130 || b.After().Len() != 130 {
			t.Fatalf("Len = %d", b.Len())
		}
		for _, tc := range []struct {
			pattern       itemset.Itemset
			before, after int
		}{
			{nil, 130, 130},
			{itemset.New(d1), 2, 2},
			{itemset.New(d2), 2, 2},
			{itemset.New(g1), 1, 2},
			{itemset.New(d2, g1), 1, 2},
			{itemset.New(d1, a1), 1, 2},
			{itemset.New(d1, d2, a1, g1), 0, 1},
			{itemset.New(itemset.AnnotationItem(2)), 0, 0},
			{itemset.New(d1, itemset.AnnotationItem(2)), 0, 0},
		} {
			before, after := b.Before().CountPattern(tc.pattern), b.After().CountPattern(tc.pattern)
			if before != tc.before || after != tc.after {
				t.Errorf("round %d: CountPattern(%v) = %d → %d, want %d → %d", round, tc.pattern, before, after, tc.before, tc.after)
			}
			if got, want := b.Change(tc.pattern), tc.after-tc.before; got != want {
				t.Errorf("round %d: Change(%v) = %d, want %d", round, tc.pattern, got, want)
			}
		}
		if got := positions(b.After().Postings(g1)); !slices.Equal(got, []int{64, 129}) {
			t.Errorf("round %d: postings of %v = %v", round, g1, got)
		}
		if got := positions(b.Changed(a1, Postings{})); !slices.Equal(got, []int{0}) {
			t.Errorf("round %d: %v changed at %v", round, a1, got)
		}
		counts := []int{-1, -1}
		b.CountWith(itemset.New(d1), []Postings{b.Changed(a1, Postings{}), b.Changed(g1, Postings{})}, counts)
		if !slices.Equal(counts, []int{1, 1}) {
			t.Errorf("round %d: CountWith = %v", round, counts)
		}
		for _, side := range []struct {
			name string
			s    BatchSide
			want map[itemset.Item]int
		}{
			{"before", b.Before(), map[itemset.Item]int{d1: 2, d2: 2, a1: 1, g1: 1}},
			{"after", b.After(), map[itemset.Item]int{d1: 2, d2: 2, a1: 2, g1: 2}},
		} {
			seen := map[itemset.Item]int{}
			side.s.EachItem(func(a itemset.Item, n int) { seen[a] = n })
			if !maps.Equal(seen, side.want) {
				t.Errorf("round %d: %s EachItem = %v, want %v", round, side.name, seen, side.want)
			}
		}
	}
}
