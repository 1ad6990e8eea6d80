package relation

import (
	"fmt"
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
	if got := r.View().Postings(MustData(dict, "d")); got.Len() != 0 {
		t.Errorf("Postings of a data value = %d positions, want none", got.Len())
	}
}

// TestPropertyRetainedViewsMatchScan runs random histories of attach,
// detach and append batches against a model of the tuples, capturing views
// at random steps and keeping them. At every step the live store, and at
// the end every kept view, must agree with the model as of its capture: the
// postings walk equals the scan-rebuilt sorted position list, frequencies
// and pattern counts match, and the consistency check passes. A write into
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
						batch[i] = Tuple{Data: itemset.New(MustData(dict, fmt.Sprintf("d%d", rng.Intn(9)))), Annots: randomAnnots()}
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
				checkStoreAgainstModel(t, fmt.Sprintf("step %d live", step), &r.st, model, annots)
				if rng.Intn(3) == 0 {
					views = append(views, kept{v: r.View(), model: slices.Clone(model)})
				}
			}
			for k, kv := range views {
				if err := kv.v.st.check(); err != nil {
					t.Fatalf("kept view %d: %v", k, err)
				}
				checkStoreAgainstModel(t, fmt.Sprintf("kept view %d", k), &kv.v.st, kv.model, annots)
			}
		})
	}
}

// checkStoreAgainstModel compares a store with the tuples it should hold.
func checkStoreAgainstModel(t *testing.T, where string, st *store, model []Tuple, annots []itemset.Item) {
	t.Helper()
	if st.n != len(model) {
		t.Fatalf("%s: %d tuples, model has %d", where, st.n, len(model))
	}
	for i, want := range model {
		if got := st.tuple(i); !got.Data.Equal(want.Data) || !got.Annots.Equal(want.Annots) {
			t.Fatalf("%s: tuple %d = %v/%v, model %v/%v", where, i, got.Data, got.Annots, want.Data, want.Annots)
		}
	}
	for _, a := range annots {
		var scan []int
		for i, tu := range model {
			if tu.Annots.Contains(a) {
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
		if got := st.countPattern(itemset.New(a, annots[0])); got != countContaining(model, itemset.New(a, annots[0])) {
			t.Fatalf("%s: CountPattern(%v, %v) = %d", where, a, annots[0], got)
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
