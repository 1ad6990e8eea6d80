package relation

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"annotadb/internal/itemset"
)

// viewFixture builds a relation with n tuples: tuple i carries data value
// "d<i%7>" and annotation Annot_A on every third tuple.
func viewFixture(t testing.TB, n int) *Relation {
	t.Helper()
	r := New()
	dict := r.Dictionary()
	a := MustAnnotation(dict, "Annot_A")
	batch := make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		d := MustData(dict, fmt.Sprintf("d%d", i%7))
		items := []itemset.Item{d}
		if i%3 == 0 {
			items = append(items, a)
		}
		batch = append(batch, NewTuple(items...))
	}
	r.Append(batch...)
	return r
}

func TestViewIsImmutableUnderMutation(t *testing.T) {
	t.Parallel()
	r := viewFixture(t, 2*dataChunkSize+17)
	dict := r.Dictionary()
	a := MustAnnotation(dict, "Annot_A")
	b := MustAnnotation(dict, "Annot_B")

	v := r.View()
	wantLen := v.Len()
	wantVersion := v.Version()
	wantFreqA := v.Frequency(a)
	tu0, err := v.Tuple(0)
	if err != nil {
		t.Fatal(err)
	}
	if !tu0.HasAnnotation(a) {
		t.Fatal("fixture: tuple 0 should carry Annot_A")
	}
	wantPostings := positions(v.Postings(a))

	// Mutate through every path: attach, detach, append.
	if err := r.AddAnnotation(1, b); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveAnnotation(0, a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ApplyUpdates([]AnnotationUpdate{{Index: 5, Annotation: b}}); err != nil {
		t.Fatal(err)
	}
	r.Append(MustTuple(dict, []string{"d0"}, []string{"Annot_B"}))

	if v.Len() != wantLen {
		t.Errorf("view Len changed under mutation: %d -> %d", wantLen, v.Len())
	}
	if v.Version() != wantVersion {
		t.Errorf("view Version changed under mutation: %d -> %d", wantVersion, v.Version())
	}
	if got := v.Frequency(a); got != wantFreqA {
		t.Errorf("view Frequency changed under mutation: %d -> %d", wantFreqA, got)
	}
	tu0v, err := v.Tuple(0)
	if err != nil {
		t.Fatal(err)
	}
	if !tu0v.HasAnnotation(a) {
		t.Error("view tuple 0 lost Annot_A after live detach")
	}
	tu1v, _ := v.Tuple(1)
	if tu1v.HasAnnotation(b) {
		t.Error("view tuple 1 gained Annot_B from live attach")
	}
	got := positions(v.Postings(a))
	if len(got) != len(wantPostings) {
		t.Fatalf("view postings changed: %v -> %v", wantPostings, got)
	}
	for i := range got {
		if got[i] != wantPostings[i] {
			t.Fatalf("view postings changed at %d: %v -> %v", i, wantPostings, got)
		}
	}

	// The live relation moved on.
	live, _ := r.Tuple(0)
	if live.HasAnnotation(a) {
		t.Error("live tuple 0 still carries removed Annot_A")
	}
	if r.Len() != wantLen+1 {
		t.Errorf("live Len = %d, want %d", r.Len(), wantLen+1)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestViewIsMemoizedBetweenMutations(t *testing.T) {
	t.Parallel()
	r := viewFixture(t, 10)
	v1 := r.View()
	if v2 := r.View(); v1 != v2 {
		t.Error("View() without intervening mutation returned a new view")
	}
	r.Append(MustTuple(r.Dictionary(), []string{"d1"}, nil))
	if v3 := r.View(); v3 == v1 {
		t.Error("View() after mutation returned the stale view")
	}
}

// sameArray reports whether two bitmaps share a backing array.
func sameArray(x, y []uint64) bool { return len(x) > 0 && len(y) > 0 && &x[0] == &y[0] }

// TestViewStructuralSharing pins the COW contract: an annotation write
// shares every data chunk by address and copies only the annotation chunk
// and the one bitmap it touches; a tuple append copies no annotation chunk
// and only the bitmaps of the appended tuple's annotations.
func TestViewStructuralSharing(t *testing.T) {
	t.Parallel()
	r := viewFixture(t, 4*dataChunkSize)
	dict := r.Dictionary()
	a := MustAnnotation(dict, "Annot_A")
	b := MustAnnotation(dict, "Annot_B")
	// b's bitmap exists before v1 and already spans every word.
	if err := r.AddAnnotation(r.Len()-1, b); err != nil {
		t.Fatal(err)
	}

	v1 := r.View()
	target := dataChunkSize + 1 // data chunk 1
	if err := r.AddAnnotation(target, b); err != nil {
		t.Fatal(err)
	}
	v2 := r.View()

	if len(v1.st.data) != len(v2.st.data) || len(v1.st.annots) != len(v2.st.annots) {
		t.Fatalf("column lengths differ: data %d vs %d, annotations %d vs %d",
			len(v1.st.data), len(v2.st.data), len(v1.st.annots), len(v2.st.annots))
	}
	for c := range v1.st.data {
		if v1.st.data[c] != v2.st.data[c] {
			t.Errorf("annotation write copied data chunk %d", c)
		}
	}
	for c := range v1.st.annots {
		shared := v1.st.annots[c] == v2.st.annots[c]
		if c == target>>annotShift && shared {
			t.Errorf("mutated annotation chunk %d still shared between generations", c)
		}
		if c != target>>annotShift && !shared {
			t.Errorf("untouched annotation chunk %d was copied", c)
		}
	}
	if !sameArray(v1.Postings(a).bits, v2.Postings(a).bits) {
		t.Error("untouched bitmap of Annot_A was copied")
	}
	if sameArray(v1.Postings(b).bits, v2.Postings(b).bits) {
		t.Error("written bitmap of Annot_B still shared between generations")
	}
	if v1.Postings(b).Contains(target) || !v2.Postings(b).Contains(target) {
		t.Error("bitmap copy-on-write leaked the attach into the older generation")
	}

	// An append writes both columns past v2's length in place.
	r.Append(MustTuple(dict, []string{"d0"}, []string{"Annot_B"}))
	v3 := r.View()
	for c := range v2.st.data {
		if v2.st.data[c] != v3.st.data[c] {
			t.Errorf("append copied data chunk %d", c)
		}
	}
	for c := range v2.st.annots {
		if v2.st.annots[c] != v3.st.annots[c] {
			t.Errorf("append copied annotation chunk %d", c)
		}
	}
	if !sameArray(v2.Postings(a).bits, v3.Postings(a).bits) {
		t.Error("append copied the bitmap of Annot_A, which the new tuple does not carry")
	}
	if v2.Len() != 4*dataChunkSize || v2.Postings(b).Contains(4*dataChunkSize) {
		t.Error("append leaked into the older generation")
	}
}

// TestNoOpMutationKeepsView pins that a call changing nothing is not a
// mutation: the memoized view survives (so the next publish shares it and
// the next real write pays no extra copy) and the version stands still.
func TestNoOpMutationKeepsView(t *testing.T) {
	t.Parallel()
	r := viewFixture(t, 10) // Annot_A on tuples 0, 3, 6, 9
	dict := r.Dictionary()
	a := MustAnnotation(dict, "Annot_A")
	b := MustAnnotation(dict, "Annot_B")
	v, version := r.View(), r.Version()
	steps := []struct {
		name string
		run  func() (applied int, err error)
	}{
		{"all-duplicate batch", func() (int, error) {
			applied, _, err := r.ApplyUpdates([]AnnotationUpdate{{Index: 0, Annotation: a}, {Index: 3, Annotation: a}})
			return len(applied), err
		}},
		{"all-absent removal", func() (int, error) {
			applied, _, err := r.ApplyRemovals([]AnnotationUpdate{{Index: 1, Annotation: a}, {Index: 0, Annotation: b}})
			return len(applied), err
		}},
		{"empty append", func() (int, error) { r.Append(); return 0, nil }},
	}
	for _, step := range steps {
		applied, err := step.run()
		if err != nil || applied != 0 {
			t.Fatalf("%s: applied %d, err %v", step.name, applied, err)
		}
		if got := r.View(); got != v {
			t.Errorf("%s dropped the memoized view", step.name)
		}
		if got := r.Version(); got != version {
			t.Errorf("%s moved Version %d -> %d", step.name, version, got)
		}
	}
}

func TestViewAgainstLiveRelationReads(t *testing.T) {
	t.Parallel()
	r := viewFixture(t, 3*dataChunkSize+5)
	v := r.View()
	if v.Len() != r.Len() {
		t.Fatalf("Len: view %d, live %d", v.Len(), r.Len())
	}
	if v.Version() != r.Version() {
		t.Fatalf("Version: view %d, live %d", v.Version(), r.Version())
	}
	r.Each(func(i int, want Tuple) bool {
		got, err := v.Tuple(i)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Data.Equal(want.Data) || !got.Annots.Equal(want.Annots) {
			t.Fatalf("tuple %d differs between view and live relation", i)
		}
		return true
	})
	if got, want := v.Stats(), r.Stats(); got != want {
		t.Errorf("Stats: view %+v, live %+v", got, want)
	}
	if got, want := v.Annotations(), r.Annotations(); !got.Equal(want) {
		t.Errorf("Annotations: view %v, live %v", got, want)
	}
	pattern := itemset.New(MustData(r.Dictionary(), "d0"))
	if got, want := v.CountPattern(pattern), r.CountPattern(pattern); got != want {
		t.Errorf("CountPattern: view %d, live %d", got, want)
	}
	if _, err := v.Tuple(-1); err == nil {
		t.Error("view Tuple(-1) did not fail")
	}
	if _, err := v.Tuple(v.Len()); err == nil {
		t.Error("view Tuple(len) did not fail")
	}
}

// TestViewConcurrentReadersUnderWriter runs pinned-view readers against a
// hammering writer under -race: a data race here means a view shares memory
// the relation still writes.
func TestViewConcurrentReadersUnderWriter(t *testing.T) {
	t.Parallel()
	r := viewFixture(t, 2*dataChunkSize)
	dict := r.Dictionary()
	b := MustAnnotation(dict, "Annot_B")

	const generations = 200
	views := make(chan *View, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: mutate, publish a fresh generation each round
		defer wg.Done()
		defer close(views)
		for i := 0; i < generations; i++ {
			idx := i % r.Len()
			if i%2 == 0 {
				_ = r.AddAnnotation(idx, b)
			} else {
				_ = r.RemoveAnnotation(idx, b)
			}
			if i%16 == 0 {
				r.Append(MustTuple(dict, []string{"dX"}, nil))
			}
			views <- r.View()
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() { // readers: full scans over whatever generation arrives
			defer wg.Done()
			for v := range views {
				n := 0
				v.Each(func(_ int, t Tuple) bool {
					n += len(t.Annots)
					return true
				})
				_ = v.Frequency(b)
				v.Postings(b).Each(func(int) bool { return true })
			}
		}()
	}
	wg.Wait()
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneViaViewIsDeepAndVersionPreserving(t *testing.T) {
	t.Parallel()
	r := viewFixture(t, dataChunkSize+3)
	dict := r.Dictionary()
	b := MustAnnotation(dict, "Annot_B")
	c := r.Clone()
	if c.Len() != r.Len() || c.Version() != r.Version() {
		t.Fatalf("clone Len/Version = %d/%d, want %d/%d", c.Len(), c.Version(), r.Len(), r.Version())
	}
	if err := r.AddAnnotation(2, b); err != nil {
		t.Fatal(err)
	}
	ct, _ := c.Tuple(2)
	if ct.HasAnnotation(b) {
		t.Error("clone observed a mutation of its source")
	}
	if err := c.AddAnnotation(3, MustAnnotation(dict, "Annot_C")); err != nil {
		t.Fatal(err)
	}
	rt, _ := r.Tuple(3)
	if rt.HasAnnotation(MustAnnotation(dict, "Annot_C")) {
		t.Error("source observed a mutation of its clone")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkViewCapture measures publishing one generation after a
// single-annotation delta on relations of growing size: the point of the
// columnar COW store is that this cost tracks the delta (one annotation
// chunk and one bitmap copy plus once-per-generation spine headers), not the
// relation. Each pair of iterations attaches and then detaches one tuple's
// annotation, so every iteration mutates.
func BenchmarkViewCapture(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := viewFixture(b, n)
			a := MustAnnotation(r.Dictionary(), "Annot_Bench")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				toggle(b, r, i, n, a)
				if v := r.View(); v.Len() != n {
					b.Fatal("bad view")
				}
			}
		})
	}
}

// toggle attaches a to tuple (i/2)%n on even i and detaches it on odd i,
// failing the benchmark if the call did not mutate.
func toggle(b *testing.B, r *Relation, i, n int, a itemset.Item) {
	var err error
	if idx := (i / 2) % n; i%2 == 0 {
		err = r.AddAnnotation(idx, a)
	} else {
		err = r.RemoveAnnotation(idx, a)
	}
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkViewAppend measures the append path with a view captured per
// batch — the serving writer's shape: append, publish, repeat.
func BenchmarkViewAppend(b *testing.B) {
	r := viewFixture(b, dataChunkSize)
	dict := r.Dictionary()
	tu := MustTuple(dict, []string{"dA"}, []string{"Annot_A"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Append(tu)
		if v := r.View(); v.Len() == 0 {
			b.Fatal("bad view")
		}
	}
}

// BenchmarkApplyAfterView measures the serving writer's real pattern: an
// annotation batch applied right after a View was captured, so every batch
// pays the copy-on-write of what it touches. Batches of distinct (tuple,
// annotation) pairs over an eight-annotation vocabulary alternate between
// attaching a batch and detaching it again, so every update applies and
// the relation returns to its seed state.
func BenchmarkApplyAfterView(b *testing.B) {
	for _, n := range []int{8 << 10, 32 << 10} {
		for _, size := range []int{16, 200} {
			b.Run(fmt.Sprintf("n=%d/updates=%d", n, size), func(b *testing.B) {
				r := viewFixture(b, n)
				dict := r.Dictionary()
				vocab := make([]itemset.Item, 8)
				for i := range vocab {
					vocab[i] = MustAnnotation(dict, fmt.Sprintf("Annot_V%d", i))
				}
				rng := rand.New(rand.NewSource(1))
				batches := make([][]AnnotationUpdate, 64)
				for k := range batches {
					seen := make(map[AnnotationUpdate]bool, size)
					for len(batches[k]) < size {
						u := AnnotationUpdate{Index: rng.Intn(n), Annotation: vocab[rng.Intn(len(vocab))]}
						if !seen[u] {
							seen[u] = true
							batches[k] = append(batches[k], u)
						}
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.View()
					apply := r.ApplyUpdates
					if i%2 == 1 {
						apply = r.ApplyRemovals
					}
					applied, _, err := apply(batches[(i/2)%len(batches)])
					if err != nil || len(applied) != size {
						b.Fatalf("applied %d of %d: %v", len(applied), size, err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("n=%d/append=4", n), func(b *testing.B) {
			// Four tuples appended after a captured view, as a /tuples batch
			// reaches the writer. The relation is rebuilt (untimed) every 256
			// batches so it stays within 1 K tuples of n.
			r := viewFixture(b, n)
			dict := r.Dictionary()
			seed := make([]Tuple, 0, n)
			r.Each(func(_ int, t Tuple) bool { seed = append(seed, t); return true })
			batch := make([]Tuple, 4)
			for i := range batch {
				batch[i] = MustTuple(dict, []string{fmt.Sprintf("d%d", i), fmt.Sprintf("d%d", i+3)}, []string{"Annot_A"})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%256 == 255 {
					b.StopTimer()
					r = NewWithDictionary(dict)
					r.Append(seed...)
					b.StartTimer()
				}
				r.View()
				r.Append(batch...)
			}
		})
	}
}

// BenchmarkCloneBaseline is the pre-view generation cost for contrast: a
// deep copy per generation, O(n) no matter how small the delta.
func BenchmarkCloneBaseline(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := viewFixture(b, n)
			a := MustAnnotation(r.Dictionary(), "Annot_Bench")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				toggle(b, r, i, n, a)
				if c := r.Clone(); c.Len() != n {
					b.Fatal("bad clone")
				}
			}
		})
	}
}
