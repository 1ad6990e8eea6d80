package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"annotadb/internal/itemset"
)

// TestScopedReadUnsealsWhenItEnds pins the ownership rule Read adds: a
// scoped read that captures nothing else leaves the chunks and bitmaps
// written since the last live capture writable in place, a View taken
// inside fn keeps them sealed, a write inside fn copies what the scoped
// view shares, and a memoized view is reused without a new seal.
func TestScopedReadUnsealsWhenItEnds(t *testing.T) {
	t.Parallel()
	r := viewFixture(t, 64)
	dict := r.Dictionary()
	b := MustAnnotation(dict, "Annot_B")
	attach := func(i int) {
		t.Helper()
		if err := r.AddAnnotation(i, b); err != nil {
			t.Fatal(err)
		}
	}
	chunk := func() *annotChunk { return r.st.annots[0] }
	bits := func() []uint64 { return r.st.postingsOf(b).bits }

	kept := r.View()
	attach(1) // copies chunk 0 and b's bitmap away from kept
	ch, bm := chunk(), bits()
	r.Read(func(v *View) {
		if v.st.annots[0] != ch || !sameArray(v.Postings(b).bits, bm) {
			t.Error("scoped view does not read the current generation")
		}
	})
	attach(2)
	if chunk() != ch || !sameArray(bits(), bm) {
		t.Error("a write after a finished scoped read copied what no live view shares")
	}
	if kept.Postings(b).Contains(1) || kept.Postings(b).Contains(2) || kept.st.annots[0] == ch {
		t.Error("writes after a scoped read reached the view retained before it")
	}

	var inner *View
	r.Read(func(*View) { inner = r.View() })
	attach(3)
	if chunk() == ch || sameArray(bits(), bm) {
		t.Error("a View captured inside a scoped read did not stay sealed")
	}
	if inner.Postings(b).Contains(3) {
		t.Error("the write after the scoped read reached the View taken inside it")
	}

	ch, bm = chunk(), bits()
	r.Read(func(v *View) {
		attach(4)
		if v.Postings(b).Contains(4) || v.st.annots[0] != ch || !sameArray(v.Postings(b).bits, bm) {
			t.Error("a write inside fn reached the scoped view")
		}
	})
	ch, bm = chunk(), bits()
	attach(5)
	if chunk() != ch || !sameArray(bits(), bm) {
		t.Error("a write after a scoped read copied what its fn wrote")
	}

	memo := r.View()
	sealed := r.sealed
	r.Read(func(v *View) {
		if v != memo {
			t.Error("Read captured a new view beside the memoized one")
		}
	})
	if r.sealed != sealed || r.View() != memo {
		t.Error("Read over a memoized view changed the seal or the memo")
	}
}

// frozenView is a deep copy of what a view reads, taken when it is captured.
type frozenView struct {
	v      *View
	tuples []Tuple
	bits   map[itemset.Item][]uint64
	counts map[itemset.Item]int
}

func freeze(v *View, items []itemset.Item) frozenView {
	f := frozenView{v: v, bits: make(map[itemset.Item][]uint64), counts: make(map[itemset.Item]int)}
	for i := 0; i < v.st.n; i++ {
		f.tuples = append(f.tuples, v.st.tuple(i).Clone())
	}
	for _, it := range items {
		p := v.st.postingsOf(it)
		f.bits[it], f.counts[it] = slices.Clone(p.bits), p.count
	}
	return f
}

// check fails t if the view no longer reads what it read when frozen.
func (f frozenView) check(t *testing.T, where string) {
	t.Helper()
	if f.v.st.n != len(f.tuples) {
		t.Fatalf("%s: %d tuples, %d at capture", where, f.v.st.n, len(f.tuples))
	}
	for i, want := range f.tuples {
		if got := f.v.st.tuple(i); !got.Data.Equal(want.Data) || !got.Annots.Equal(want.Annots) {
			t.Fatalf("%s: tuple %d = %v/%v, %v/%v at capture", where, i, got.Data, got.Annots, want.Data, want.Annots)
		}
	}
	for it, want := range f.bits {
		if p := f.v.st.postingsOf(it); !slices.Equal(p.bits, want) || p.count != f.counts[it] {
			t.Fatalf("%s: bitmap of %v = %x (count %d), %x (count %d) at capture", where, it, p.bits, p.count, want, f.counts[it])
		}
	}
}

// TestPropertyScopedReadsKeepRetainedViews runs seeded random interleavings
// of annotation toggles, appends, retained View captures and scoped Reads.
// An inline Read's fn itself runs random steps — toggles, appends, a View
// it keeps, a nested Read. A parked Read holds its view in another goroutine
// until a later step releases it, so scoped reads also end out of the order
// they began. After every step the live relation matches a model of the
// tuples, and every retained view and every scoped view still in flight
// reads exactly what it read when captured. A Read that put its seal back
// despite a capture during fn would let a later write land in memory a
// retained view shares, and that view would drift from its frozen copy.
func TestPropertyScopedReadsKeepRetainedViews(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			r := New()
			dict := r.Dictionary()
			var annots, values []itemset.Item
			for i := 0; i < 5; i++ {
				annots = append(annots, MustAnnotation(dict, fmt.Sprintf("Annot_%d", i)))
			}
			for i := 0; i < 6; i++ {
				values = append(values, MustData(dict, fmt.Sprintf("d%d", i)))
			}
			items := append(slices.Clone(annots), values...)

			var model []Tuple
			appendTuples := func() {
				batch := make([]Tuple, 1+rng.Intn(40))
				for i := range batch {
					var its []itemset.Item
					for _, it := range items {
						if rng.Intn(3) == 0 {
							its = append(its, it)
						}
					}
					batch[i] = NewTuple(its...)
				}
				r.Append(batch...)
				model = append(model, batch...)
			}
			toggle := func() {
				for k := 1 + rng.Intn(8); k > 0; k-- {
					i, a := rng.Intn(len(model)), annots[rng.Intn(len(annots))]
					tu := &model[i]
					var err error
					if tu.Annots.Contains(a) {
						err = r.RemoveAnnotation(i, a)
						tu.Annots = tu.Annots.Remove(a)
					} else {
						err = r.AddAnnotation(i, a)
						tu.Annots = tu.Annots.Add(a)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}

			type parked struct {
				v             *View
				release, done chan struct{}
			}
			var (
				retained []frozenView
				inFlight []frozenView // scoped views, inline and parked
				waiting  []parked
			)
			capture := func(v *View, where string) frozenView {
				checkStoreAgainstModel(t, where, &v.st, model, annots, values)
				return freeze(v, items)
			}
			checkAll := func(where string) {
				if err := r.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				checkStoreAgainstModel(t, where+" live", &r.st, model, annots, values)
				for k, f := range retained {
					f.check(t, fmt.Sprintf("%s: retained view %d", where, k))
				}
				for k, f := range inFlight {
					f.check(t, fmt.Sprintf("%s: scoped view %d", where, k))
				}
			}
			dropInFlight := func(v *View) {
				inFlight = slices.DeleteFunc(inFlight, func(f frozenView) bool { return f.v == v })
			}

			var step func(where string, depth int)
			step = func(where string, depth int) {
				switch op := rng.Intn(7); {
				case op == 0 || len(model) == 0:
					appendTuples()
				case op <= 2:
					toggle()
				case op == 3:
					retained = append(retained, capture(r.View(), where+" View"))
				case op == 4 && depth < 2:
					r.Read(func(v *View) {
						inFlight = append(inFlight, capture(v, where+" Read"))
						for k := rng.Intn(5); k > 0; k-- {
							inner := fmt.Sprintf("%s/in Read %d", where, k)
							step(inner, depth+1)
							checkAll(inner)
						}
						dropInFlight(v)
					})
				case op == 5 && len(waiting) < 3:
					p := parked{release: make(chan struct{}), done: make(chan struct{})}
					got := make(chan *View)
					go func() {
						defer close(p.done)
						r.Read(func(v *View) {
							got <- v
							<-p.release
						})
					}()
					p.v = <-got
					inFlight = append(inFlight, capture(p.v, where+" parked Read"))
					waiting = append(waiting, p)
				case len(waiting) > 0:
					k := rng.Intn(len(waiting))
					p := waiting[k]
					waiting = slices.Delete(waiting, k, k+1)
					close(p.release)
					<-p.done
					dropInFlight(p.v)
				default:
					toggle()
				}
			}
			for s := 0; s < 200; s++ {
				where := fmt.Sprintf("step %d", s)
				step(where, 0)
				checkAll(where)
			}
			for _, p := range waiting {
				close(p.release)
				<-p.done
			}
		})
	}
}
