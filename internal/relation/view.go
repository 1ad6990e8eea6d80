package relation

import (
	"fmt"
	"sort"

	"annotadb/internal/itemset"
)

// Chunk geometry of the tuple store. Tuples live in fixed-size chunks so
// that a generation can be captured by sharing the chunk spine: a mutation
// copies only the chunks it touches (plus the spine and the index/frequency
// map headers, once per generation), never the whole relation.
const (
	chunkShift = 9
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// store is the chunked representation of an annotated relation: the tuples,
// the inverted annotation index, the annotation frequency table, and the
// mutation version. It is shared by Relation (which mutates it copy-on-write
// behind a lock) and View (which freezes one generation of it). store
// methods are pure reads; synchronization is the embedding type's concern.
type store struct {
	chunks  [][]Tuple
	n       int
	index   map[itemset.Item][]int // annotation → ascending tuple positions
	freq    map[itemset.Item]int   // annotation → tuple count
	version uint64
}

func (st *store) tuple(i int) Tuple {
	return st.chunks[i>>chunkShift][i&chunkMask]
}

func (st *store) tupleChecked(i int) (Tuple, error) {
	if i < 0 || i >= st.n {
		return Tuple{}, fmt.Errorf("%w: %d (relation has %d tuples)", ErrTupleIndex, i, st.n)
	}
	return st.tuple(i), nil
}

func (st *store) each(start int, fn func(i int, t Tuple) bool) {
	if start < 0 {
		start = 0
	}
	for c := start >> chunkShift; c < len(st.chunks); c++ {
		ch := st.chunks[c]
		base := c << chunkShift
		off := 0
		if base < start {
			off = start - base
		}
		for ; off < len(ch); off++ {
			i := base + off
			if i >= st.n {
				return
			}
			if !fn(i, ch[off]) {
				return
			}
		}
	}
}

func (st *store) countPattern(pattern itemset.Itemset, positions []int) int {
	n := 0
	if positions == nil {
		st.each(0, func(_ int, t Tuple) bool {
			if t.Contains(pattern) {
				n++
			}
			return true
		})
		return n
	}
	for _, i := range positions {
		if i >= 0 && i < st.n && st.tuple(i).Contains(pattern) {
			n++
		}
	}
	return n
}

func (st *store) annotations() itemset.Itemset {
	out := make([]itemset.Item, 0, len(st.freq))
	for a, n := range st.freq {
		if n > 0 {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return itemset.FromSorted(out)
}

func (st *store) freqTable() map[itemset.Item]int {
	out := make(map[itemset.Item]int, len(st.freq))
	for a, n := range st.freq {
		out[a] = n
	}
	return out
}

func (st *store) stats() Stats {
	var s Stats
	s.Tuples = st.n
	dataSeen := make(map[itemset.Item]struct{})
	st.each(0, func(_ int, t Tuple) bool {
		if len(t.Annots) > 0 {
			s.AnnotatedTuples++
		}
		s.Annotations += len(t.Annots)
		if len(t.Annots) > s.MaxAnnotsPerTuple {
			s.MaxAnnotsPerTuple = len(t.Annots)
		}
		for _, d := range t.Data {
			dataSeen[d] = struct{}{}
		}
		return true
	})
	for _, n := range st.freq {
		if n > 0 {
			s.DistinctAnnots++
		}
	}
	s.DistinctData = len(dataSeen)
	return s
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
// annotation index, and frequency table exactly as they stood when
// Relation.View captured it. A View is safe for any number of concurrent
// readers with no synchronization — nothing reachable from it is ever
// written again — and holding one costs O(1): generations share unchanged
// chunks structurally, so k generations of an n-tuple relation cost
// O(n + k·delta), not O(k·n).
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

// TuplesWith returns the ascending positions of tuples carrying annotation a
// in this generation. The slice is frozen; callers must not modify it.
func (v *View) TuplesWith(a itemset.Item) []int { return v.st.index[a] }

// Frequency returns the number of tuples carrying annotation a.
func (v *View) Frequency(a itemset.Item) int { return v.st.freq[a] }

// FrequencyTable returns a copy of the annotation frequency table.
func (v *View) FrequencyTable() map[itemset.Item]int { return v.st.freqTable() }

// AttachmentTotals folds the frequency table into the two numbers stats
// report — attachments (annotation occurrences over all tuples) and distinct
// (annotations present on at least one tuple) — without copying the table.
func (v *View) AttachmentTotals() (attachments, distinct int) {
	for _, n := range v.st.freq {
		if n > 0 {
			attachments += n
			distinct++
		}
	}
	return attachments, distinct
}

// Annotations returns every annotation present on at least one tuple, sorted.
func (v *View) Annotations() itemset.Itemset { return v.st.annotations() }

// CountPattern counts tuples containing pattern, over positions (or the
// whole generation when positions is nil).
func (v *View) CountPattern(pattern itemset.Itemset, positions []int) int {
	return v.st.countPattern(pattern, positions)
}

// Stats computes summary statistics for this generation in one pass.
func (v *View) Stats() Stats { return v.st.stats() }
