package relation

import (
	"fmt"
	"math"
	"math/bits"

	"annotadb/internal/itemset"
)

// Column geometry of the tuple store. A tuple's data values never change
// after append, so the data column is a spine of fixed arrays that are only
// ever written past every captured view's length and never copied. Its
// annotation set changes with every attach and detach, so the annotation
// column lives in small chunks that a write copies when a captured view
// still shares them: an annotation write copies one 16-tuple chunk (384 B)
// plus, once per generation, the chunk spine (8 B per chunk).
// BenchmarkApplyAfterView picked the size: against 64-tuple chunks, 16-tuple
// ones allocate 45 % less per 16-update batch at 8 K tuples and 12 % less at
// 32 K, where the spine copy catches up with the chunk copies.
const (
	dataShift      = 9
	dataChunkSize  = 1 << dataShift
	dataMask       = dataChunkSize - 1
	annotShift     = 4
	annotChunkSize = 1 << annotShift
	annotMask      = annotChunkSize - 1
)

type (
	dataChunk  [dataChunkSize]itemset.Itemset
	annotChunk [annotChunkSize]itemset.Itemset
)

// store is the columnar representation of an annotated relation: the data
// column, the annotation column, the inverted index over annotations and data
// values with the frequency table beside it, and the mutation version. It is
// shared by Relation (which writes it behind a lock) and View (which freezes
// one generation of it). store methods are pure reads; synchronization is the
// embedding type's concern.
type store struct {
	n       int
	version uint64
	data    []*dataChunk
	annots  []*annotChunk
	// postings holds each item's index entry at its dictionary id, on the
	// spine of its kind (kindSlot). An entry with a nil bitmap was never set.
	postings [numSlots][]Postings
}

func (st *store) tuple(i int) Tuple {
	return Tuple{Data: st.dataOf(i), Annots: st.annotsOf(i)}
}

func (st *store) dataOf(i int) itemset.Itemset   { return st.data[i>>dataShift][i&dataMask] }
func (st *store) annotsOf(i int) itemset.Itemset { return st.annots[i>>annotShift][i&annotMask] }

func (st *store) tupleChecked(i int) (Tuple, error) {
	if i < 0 || i >= st.n {
		return Tuple{}, fmt.Errorf("%w: %d (relation has %d tuples)", ErrTupleIndex, i, st.n)
	}
	return st.tuple(i), nil
}

func (st *store) each(start int, fn func(i int, t Tuple) bool) {
	for i := max(start, 0); i < st.n; i++ {
		if !fn(i, st.tuple(i)) {
			return
		}
	}
}

// postingsOf returns item a's index entry; the zero Postings for an item
// that was never set.
func (st *store) postingsOf(a itemset.Item) Postings {
	if spine := st.postings[kindSlot(a)]; a.ID() < len(spine) {
		return spine[a.ID()]
	}
	return Postings{}
}

// frequency is the frequency table's entry for a: zero for a data value, so
// the table stays annotation-only.
func (st *store) frequency(a itemset.Item) int {
	if !a.IsAnnotation() {
		return 0
	}
	return st.postingsOf(a).count
}

// eachEntry calls fn for every item ever set on the given spines, in item
// order (kindSlot's order on each spine, by id within it).
func (st *store) eachEntry(spines []int, fn func(a itemset.Item, p Postings)) {
	for _, k := range spines {
		for id, p := range st.postings[k] {
			if p.bits != nil {
				fn(slotItem(k, id), p)
			}
		}
	}
}

// The spines eachEntry walks: the annotation-only reads (the frequency table,
// Annotations, AttachmentTotals) see the first two, the consistency check and
// EachItem all three.
var (
	annotSpines = []int{rawSlot, derivedSlot}
	allSpines   = []int{rawSlot, derivedSlot, dataSlot}
)

// countPattern counts tuples containing pattern from the bitmaps alone, never
// reading a tuple — the paper's "check all data tuples in the database having
// this annotation".
func (st *store) countPattern(pattern itemset.Itemset) int {
	switch len(pattern) {
	case 0:
		return st.n
	case 1:
		return st.postingsOf(pattern[0]).count
	}
	var buf [8][]uint64
	bitmaps := buf[:0]
	for _, it := range pattern {
		bitmaps = append(bitmaps, st.postingsOf(it).bits)
	}
	return countBitmaps(bitmaps)
}

// countBitmaps is the one counting kernel, shared by the relation, BatchIndex
// and anchor queries: the number of positions set in every one of bitmaps,
// ANDed word by word and popcounted. Walking the rarest item's positions and
// probing the others costs the same when one item is rare and 20× more when
// all are dense.
func countBitmaps(bitmaps [][]uint64) int {
	words := math.MaxInt
	for _, b := range bitmaps {
		words = min(words, len(b))
	}
	n := 0
	if len(bitmaps) == 2 {
		// An anchor and a candidate, or a 2-itemset: without the loop over
		// the other bitmaps a word costs about half as much, which keeps an
		// anchor query on a 256-annotation dictionary or a rare anchor no
		// slower than walking the anchor's positions.
		first, second := bitmaps[0][:words], bitmaps[1][:words]
		for w, x := range first {
			n += bits.OnesCount64(x & second[w])
		}
		return n
	}
	for w, x := range bitmaps[0][:words] {
		for _, other := range bitmaps[1:] {
			x &= other[w]
		}
		n += bits.OnesCount64(x)
	}
	return n
}

func (st *store) annotations() itemset.Itemset {
	var out []itemset.Item
	st.eachEntry(annotSpines, func(a itemset.Item, p Postings) {
		if p.count > 0 {
			out = append(out, a)
		}
	})
	return itemset.FromSorted(out)
}

func (st *store) attachmentTotals() (attachments, distinct int) {
	st.eachEntry(annotSpines, func(_ itemset.Item, p Postings) {
		if p.count > 0 {
			attachments += p.count
			distinct++
		}
	})
	return attachments, distinct
}

func (st *store) stats() Stats {
	var s Stats
	s.Tuples = st.n
	s.Annotations, s.DistinctAnnots = st.attachmentTotals()
	st.eachEntry([]int{dataSlot}, func(itemset.Item, Postings) { s.DistinctData++ })
	for i := 0; i < st.n; i++ {
		a := st.annotsOf(i)
		if len(a) > 0 {
			s.AnnotatedTuples++
		}
		s.MaxAnnotsPerTuple = max(s.MaxAnnotsPerTuple, len(a))
	}
	return s
}

// check verifies the column geometry, the tuples' canonical form, and the
// index and frequency table against a scan of the tuples.
func (st *store) check() error {
	if want := (st.n + dataMask) >> dataShift; len(st.data) != want {
		return fmt.Errorf("relation: data column has %d chunks for %d tuples, want %d", len(st.data), st.n, want)
	}
	if want := (st.n + annotMask) >> annotShift; len(st.annots) != want {
		return fmt.Errorf("relation: annotation column has %d chunks for %d tuples, want %d", len(st.annots), st.n, want)
	}
	scanned := make(map[itemset.Item]int)
	var err error
	st.each(0, func(i int, t Tuple) bool {
		switch {
		case !t.Data.Wellformed() || !t.Annots.Wellformed():
			err = fmt.Errorf("relation: tuple %d not canonical", i)
		case t.Data.HasAnnotation():
			err = fmt.Errorf("relation: tuple %d has annotation in data part", i)
		case !t.Annots.PureAnnotations():
			err = fmt.Errorf("relation: tuple %d has data value in annotation part", i)
		}
		for _, it := range t.Items() {
			if err == nil && !st.postingsOf(it).Contains(i) {
				err = fmt.Errorf("relation: index for %v misses tuple %d", it, i)
			}
			scanned[it]++
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	// Every tuple's items are in the index, so an entry whose count and
	// population both match the scan holds nothing else.
	st.eachEntry(allSpines, func(a itemset.Item, p Postings) {
		pop := 0
		for _, x := range p.bits {
			pop += bits.OnesCount64(x)
		}
		if err == nil && (p.count != scanned[a] || pop != p.count) {
			err = fmt.Errorf("relation: frequency table says %d tuples for %v, bitmap holds %d, actual %d", p.count, a, pop, scanned[a])
		}
	})
	return err
}

// Source is the read-only face of an annotated relation: everything a
// consumer needs to evaluate rules or serialize tuples, with no way to
// mutate. *Relation satisfies it with locked live reads; *View satisfies it
// lock-free over one frozen generation. Code that only reads — the
// recommendation scanner, the checkpoint writer — should accept a Source so
// it can be pointed at either.
type Source interface {
	// Dictionary returns the token dictionary the tuples are encoded under.
	Dictionary() *Dictionary
	// Len returns the number of tuples.
	Len() int
	// Tuple returns the tuple at position i, or ErrTupleIndex.
	Tuple(i int) (Tuple, error)
	// Each visits every tuple position in order until fn returns false.
	Each(fn func(i int, t Tuple) bool)
	// EachFrom behaves like Each but starts at position start.
	EachFrom(start int, fn func(i int, t Tuple) bool)
}

var (
	_ Source = (*Relation)(nil)
	_ Source = (*View)(nil)
)

// View is one immutable generation of a Relation: the tuples, inverted
// index, and frequency table exactly as they stood when
// Relation.View captured it. A View is safe for any number of concurrent
// readers with no synchronization — nothing reachable from it is ever
// written again — and holding one costs O(1): generations share the data
// column outright and every annotation chunk and bitmap a later write did
// not touch, so k generations of an n-tuple relation cost O(n + k·delta),
// not O(k·n).
//
// The serving layer publishes a View inside every snapshot so that a reader
// sees tuple contents and the rule set from the same generation; the
// checkpoint writer serializes a pinned View so the relation stays mutable
// (and unlocked) for the whole write.
type View struct {
	dict *Dictionary
	st   store
}

// Dictionary returns the token dictionary backing the view. The dictionary
// is shared with the live relation and append-only: tokens visible to this
// view never change, though newer tokens may exist alongside it.
func (v *View) Dictionary() *Dictionary { return v.dict }

// Len returns the number of tuples in this generation.
func (v *View) Len() int { return v.st.n }

// Version returns the relation mutation counter this generation was
// captured at. The staleness of a view is the live relation's Version minus
// this value.
func (v *View) Version() uint64 { return v.st.version }

// Tuple returns the tuple at position i as of this generation. The returned
// value shares the view's backing arrays and must be treated as read-only.
func (v *View) Tuple(i int) (Tuple, error) { return v.st.tupleChecked(i) }

// Each calls fn for every tuple position in order until fn returns false.
func (v *View) Each(fn func(i int, t Tuple) bool) { v.st.each(0, fn) }

// EachFrom behaves like Each but starts at position start.
func (v *View) EachFrom(start int, fn func(i int, t Tuple) bool) { v.st.each(start, fn) }

// Postings returns the positions of tuples carrying item a — an annotation
// or a data value — in this generation, frozen with it.
func (v *View) Postings(a itemset.Item) Postings { return v.st.postingsOf(a) }

// Frequency returns the number of tuples carrying annotation a; zero for a
// data value.
func (v *View) Frequency(a itemset.Item) int { return v.st.frequency(a) }

// AttachmentTotals folds the frequency table into the two numbers stats
// report — attachments (annotation occurrences over all tuples) and distinct
// (annotations present on at least one tuple).
func (v *View) AttachmentTotals() (attachments, distinct int) { return v.st.attachmentTotals() }

// Annotations returns every annotation present on at least one tuple, sorted.
func (v *View) Annotations() itemset.Itemset { return v.st.annotations() }

// EachItem calls fn with every item that has postings in this generation —
// raw annotations, derived labels and data values — and the number of tuples
// carrying it (possibly zero), in spine order. It reads the index, not the
// Dictionary, so an item set on a tuple without being interned is visited
// too.
func (v *View) EachItem(fn func(a itemset.Item, n int)) {
	v.st.eachEntry(allSpines, func(a itemset.Item, p Postings) { fn(a, p.count) })
}

// CountPattern counts the tuples of this generation containing pattern.
func (v *View) CountPattern(pattern itemset.Itemset) int { return v.st.countPattern(pattern) }

// EachCooccurrence calls fn with every annotation of this generation that
// shares a position below n with anchor, the number co of such positions and
// the annotation's own count freq below n, in spine order. anchor may be
// another generation's or another shard's postings over the same positions:
// only its positions below n count. Every count is one AND-popcount over the
// bitmaps; no tuple is read.
func (v *View) EachCooccurrence(anchor Postings, n int, fn func(a itemset.Item, co, freq int)) {
	// No bit of the view's is set at or past its length, so a candidate's
	// count below n is its whole count unless n cuts the view short.
	if n = min(n, v.st.n); n <= 0 {
		return
	}
	// The anchor's whole words below n go through the kernel; the word n
	// falls inside, masked to the positions below n, is ANDed on its own.
	whole, cut := anchor.bits, n>>6
	var partial uint64
	if cut < len(whole) {
		whole, partial = whole[:cut], whole[cut]&(1<<(uint(n)&63)-1)
	}
	pair := [2][]uint64{whole}
	v.st.eachEntry(annotSpines, func(a itemset.Item, p Postings) {
		pair[1] = p.bits
		co := countBitmaps(pair[:])
		if partial != 0 && cut < len(p.bits) {
			co += bits.OnesCount64(partial & p.bits[cut])
		}
		if co > 0 {
			freq := p.count
			if n < v.st.n {
				freq = p.CountBelow(n)
			}
			fn(a, co, freq)
		}
	})
}

// Stats computes summary statistics for this generation in one pass.
func (v *View) Stats() Stats { return v.st.stats() }
