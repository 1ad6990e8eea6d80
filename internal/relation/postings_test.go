package relation

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"annotadb/internal/itemset"
)

// positions lists a Postings' members ascending: the sorted position list
// the index is checked against.
func positions(p Postings) []int {
	var out []int
	p.Each(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

func TestPostingsReads(t *testing.T) {
	t.Parallel()
	r := New()
	dict := r.Dictionary()
	a := MustAnnotation(dict, "Annot_A")
	for i := 0; i < 200; i++ {
		var annots []string
		if i%7 == 0 || i == 63 || i == 64 || i == 127 || i == 128 {
			annots = []string{"Annot_A"}
		}
		r.Append(MustTuple(dict, []string{"d"}, annots))
	}
	p := r.View().Postings(a)
	var want []int
	for i := 0; i < 200; i++ {
		if i%7 == 0 || i == 63 || i == 64 || i == 127 || i == 128 {
			want = append(want, i)
		}
	}
	if got := positions(p); !slices.Equal(got, want) {
		t.Fatalf("Each = %v, want %v", got, want)
	}
	if p.Len() != len(want) {
		t.Errorf("Len = %d, want %d", p.Len(), len(want))
	}
	for n := -1; n <= 260; n++ {
		below := 0
		for _, i := range want {
			if i < n {
				below++
			}
		}
		if got := p.CountBelow(n); got != below {
			t.Errorf("CountBelow(%d) = %d, want %d", n, got, below)
		}
		if got := p.Contains(n); got != slices.Contains(want, n) {
			t.Errorf("Contains(%d) = %v", n, got)
		}
	}
	stopped := 0
	p.Each(func(int) bool { stopped++; return stopped < 3 })
	if stopped != 3 {
		t.Errorf("Each visited %d positions after fn returned false at the third", stopped)
	}
	var empty Postings
	if empty.Len() != 0 || empty.Contains(0) || empty.CountBelow(10) != 0 || positions(empty) != nil {
		t.Error("zero Postings is not the empty set")
	}
	if got := r.View().Postings(MustData(dict, "d")); got.Len() != 200 || positions(got)[199] != 199 {
		t.Errorf("Postings of a data value on every tuple = %d positions, want 200", got.Len())
	}
}

// TestAnnotationOnlyReads guards the frequency-table reads against the data
// spine: a data value has postings, yet Frequency, EachFrequency,
// Annotations, AttachmentTotals and Stats' annotation counts see only
// annotations, on the live relation and on a view.
func TestAnnotationOnlyReads(t *testing.T) {
	t.Parallel()
	r := New()
	dict := r.Dictionary()
	r.Append(
		MustTuple(dict, []string{"d1", "d2"}, []string{"Annot_A"}),
		MustTuple(dict, []string{"d1"}, nil),
	)
	d1, a := MustData(dict, "d1"), MustAnnotation(dict, "Annot_A")
	v := r.View()
	if v.Postings(d1).Len() != 2 {
		t.Fatalf("data postings = %v, want both tuples", positions(v.Postings(d1)))
	}
	if r.Frequency(d1) != 0 || v.Frequency(d1) != 0 || r.Frequency(a) != 1 || v.Frequency(a) != 1 {
		t.Errorf("Frequency: live d1 %d, view d1 %d, live a %d, view a %d; want 0, 0, 1, 1",
			r.Frequency(d1), v.Frequency(d1), r.Frequency(a), v.Frequency(a))
	}
	var seen []itemset.Item
	r.EachFrequency(func(it itemset.Item, _ int) { seen = append(seen, it) })
	if !slices.Equal(seen, []itemset.Item{a}) {
		t.Errorf("EachFrequency visited %v, want only %v", seen, a)
	}
	if want := itemset.New(a); !r.Annotations().Equal(want) || !v.Annotations().Equal(want) {
		t.Errorf("Annotations = %v / %v, want %v", r.Annotations(), v.Annotations(), want)
	}
	if att, distinct := v.AttachmentTotals(); att != 1 || distinct != 1 {
		t.Errorf("AttachmentTotals = %d, %d; want 1, 1", att, distinct)
	}
	if s := r.Stats(); s.Annotations != 1 || s.DistinctAnnots != 1 || s.DistinctData != 2 || s.AnnotatedTuples != 1 {
		t.Errorf("Stats = %+v", s)
	}
}

// TestPropertyRetainedViewsMatchScan runs random histories of attach,
// detach and append batches against a model of the tuples, capturing views
// at random steps and keeping them. Every tuple carries two or three data
// values from a small pool. At every step the live store, and at the end
// every kept view, must agree with the model as of its capture: the postings
// walk of every annotation and data value equals the scan-rebuilt sorted
// position list, frequencies and annotation, data and mixed pattern counts
// match, and the consistency check passes. A write into
// an array a kept view shares shows up here as a view drifting from its
// model (and under -race as a race).
func TestPropertyRetainedViewsMatchScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			r := New()
			dict := r.Dictionary()
			var annots []itemset.Item
			for i := 0; i < 5; i++ {
				annots = append(annots, MustAnnotation(dict, fmt.Sprintf("Annot_%d", i)))
			}
			for i := 0; i < 2; i++ {
				g, err := dict.InternDerived(fmt.Sprintf("Label_%d", i))
				if err != nil {
					t.Fatal(err)
				}
				annots = append(annots, g)
			}
			randomAnnots := func() itemset.Itemset {
				var out []itemset.Item
				for _, a := range annots {
					if rng.Intn(4) == 0 {
						out = append(out, a)
					}
				}
				return itemset.New(out...)
			}
			var values []itemset.Item
			for i := 0; i < 6; i++ {
				values = append(values, MustData(dict, fmt.Sprintf("d%d", i)))
			}
			randomData := func() itemset.Itemset {
				perm := rng.Perm(len(values))[:2+rng.Intn(2)]
				out := make([]itemset.Item, len(perm))
				for i, k := range perm {
					out[i] = values[k]
				}
				return itemset.New(out...)
			}
			randomBatch := func(n int) []AnnotationUpdate {
				batch := make([]AnnotationUpdate, 1+rng.Intn(24))
				for i := range batch {
					batch[i] = AnnotationUpdate{Index: rng.Intn(n), Annotation: annots[rng.Intn(len(annots))]}
				}
				return batch
			}

			var model []Tuple
			type kept struct {
				v     *View
				model []Tuple
			}
			var views []kept
			for step := 0; step < 150; step++ {
				switch op := rng.Intn(3); {
				case op == 0 || len(model) == 0:
					batch := make([]Tuple, rng.Intn(90))
					for i := range batch {
						batch[i] = Tuple{Data: randomData(), Annots: randomAnnots()}
					}
					r.Append(batch...)
					model = append(model, batch...)
				case op == 1:
					batch := randomBatch(len(model))
					applied, skipped, err := r.ApplyUpdates(batch)
					if err != nil {
						t.Fatal(err)
					}
					want := 0
					for _, u := range batch {
						if tu := &model[u.Index]; !tu.Annots.Contains(u.Annotation) {
							tu.Annots = tu.Annots.Add(u.Annotation)
							want++
						}
					}
					if len(applied) != want || len(skipped) != len(batch)-want {
						t.Fatalf("step %d: applied %d, skipped %d; model applied %d of %d", step, len(applied), len(skipped), want, len(batch))
					}
				default:
					batch := randomBatch(len(model))
					applied, _, err := r.ApplyRemovals(batch)
					if err != nil {
						t.Fatal(err)
					}
					want := 0
					for _, u := range batch {
						if tu := &model[u.Index]; tu.Annots.Contains(u.Annotation) {
							tu.Annots = tu.Annots.Remove(u.Annotation)
							want++
						}
					}
					if len(applied) != want {
						t.Fatalf("step %d: applied %d removals, model applied %d", step, len(applied), want)
					}
				}
				if err := r.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkStoreAgainstModel(t, fmt.Sprintf("step %d live", step), &r.st, model, annots, values)
				if rng.Intn(3) == 0 {
					views = append(views, kept{v: r.View(), model: slices.Clone(model)})
				}
			}
			for k, kv := range views {
				if err := kv.v.st.check(); err != nil {
					t.Fatalf("kept view %d: %v", k, err)
				}
				checkStoreAgainstModel(t, fmt.Sprintf("kept view %d", k), &kv.v.st, kv.model, annots, values)
			}
		})
	}
}

// checkStoreAgainstModel compares a store with the tuples it should hold.
func checkStoreAgainstModel(t *testing.T, where string, st *store, model []Tuple, annots, values []itemset.Item) {
	t.Helper()
	if st.n != len(model) {
		t.Fatalf("%s: %d tuples, model has %d", where, st.n, len(model))
	}
	for i, want := range model {
		if got := st.tuple(i); !got.Data.Equal(want.Data) || !got.Annots.Equal(want.Annots) {
			t.Fatalf("%s: tuple %d = %v/%v, model %v/%v", where, i, got.Data, got.Annots, want.Data, want.Annots)
		}
	}
	for _, a := range append(slices.Clone(annots), values...) {
		var scan []int
		for i, tu := range model {
			if tu.Contains(itemset.New(a)) {
				scan = append(scan, i)
			}
		}
		p := st.postingsOf(a)
		if got := positions(p); !slices.Equal(got, scan) {
			t.Fatalf("%s: postings of %v = %v, scan %v", where, a, got, scan)
		}
		if p.Len() != len(scan) {
			t.Fatalf("%s: frequency of %v = %d, scan %d", where, a, p.Len(), len(scan))
		}
		for _, pattern := range []itemset.Itemset{
			itemset.New(a, annots[0]),
			itemset.New(a, values[0]),
			itemset.New(a, values[1], annots[1]),
			itemset.New(a, values[2], values[3]),
		} {
			if got, want := st.countPattern(pattern), countContaining(model, pattern); got != want {
				t.Fatalf("%s: CountPattern(%v) = %d, model %d", where, pattern, got, want)
			}
		}
	}
}

func countContaining(model []Tuple, pattern itemset.Itemset) int {
	n := 0
	for _, tu := range model {
		if tu.Contains(pattern) {
			n++
		}
	}
	return n
}

// TestEachCooccurrenceMatchesScan checks the anchor-query kernel against a
// scan of the tuples at every kind of cut n: none, inside the first word, on
// word boundaries (64 and 512), mid-word with set bits on both sides of the
// cut, and past every bitmap. Anchors and candidates pair short bitmaps with
// long ones both ways round; one candidate is interned but never set, one
// was set and cleared again, and one anchor comes from a longer relation
// whose positions past the view's length are set.
func TestEachCooccurrenceMatchesScan(t *testing.T) {
	t.Parallel()
	const size = 600
	r := New()
	dict := r.Dictionary()
	MustAnnotation(dict, "never:set")
	rng := rand.New(rand.NewSource(5))
	row := func(i int) Tuple {
		data := []string{fmt.Sprintf("mod=%d", i%3)}
		if i >= 500 {
			data = append(data, "d=late")
		}
		if i < 70 {
			data = append(data, "d=early")
		}
		var annots []string
		if i < 100 {
			annots = append(annots, "early:x")
		}
		if i >= 450 {
			annots = append(annots, "late:x")
		}
		if i%2 == 0 {
			annots = append(annots, "even:x")
		}
		if rng.Intn(4) == 0 {
			annots = append(annots, "some:x")
		}
		return MustTuple(dict, data, annots)
	}
	for i := 0; i < size; i++ {
		r.Append(row(i))
	}
	gone := MustAnnotation(dict, "gone:x")
	if err := r.AddAnnotation(3, gone); err != nil {
		t.Fatal(err)
	}
	longer := r.Clone()
	if err := r.RemoveAnnotation(3, gone); err != nil {
		t.Fatal(err)
	}
	for i := size; i < size+40; i++ {
		longer.Append(row(i))
	}
	v := r.View()
	var tuples []Tuple
	v.Each(func(_ int, tu Tuple) bool {
		tuples = append(tuples, tu)
		return true
	})
	type counts struct{ co, freq int }
	scan := func(anchor Postings, n int) map[itemset.Item]counts {
		out := make(map[itemset.Item]counts)
		for _, a := range dict.AnnotationItems() {
			var c counts
			for i := 0; i < min(n, size); i++ {
				if tuples[i].Annots.Contains(a) {
					c.freq++
					if anchor.Contains(i) {
						c.co++
					}
				}
			}
			if c.co > 0 {
				out[a] = c
			}
		}
		return out
	}
	anchors := map[string]Postings{"longer relation's even:x": longer.View().Postings(MustAnnotation(dict, "even:x"))}
	for _, token := range []string{"early:x", "late:x", "even:x", "some:x", "d=early", "d=late", "mod=1"} {
		it, _ := dict.Lookup(token)
		anchors[token] = v.Postings(it)
	}
	for name, anchor := range anchors {
		for _, n := range []int{0, 1, 37, 63, 64, 65, 100, 127, 128, 300, 511, 512, 513, 599, 600, 601, 1 << 20} {
			got := make(map[itemset.Item]counts)
			v.EachCooccurrence(anchor, n, func(a itemset.Item, co, freq int) {
				if _, dup := got[a]; dup {
					t.Errorf("anchor %s n %d: %v visited twice", name, n, a)
				}
				got[a] = counts{co, freq}
			})
			if want := scan(anchor, n); !maps.Equal(got, want) {
				t.Errorf("anchor %s n %d: got %v, want %v", name, n, got, want)
			}
		}
	}
}
