package relation

import "annotadb/internal/itemset"

// BatchIndex is an inverted index over a handful of tuples at positions
// 0..Len()-1 — in practice the tuples one write batch changed — on both sides
// of the write. It holds the relation's Postings and counts with the
// relation's kernel, so the change a batch makes to a pattern's count is
// After().CountPattern(p) − Before().CountPattern(p), counted the way a full
// mine counts the relation (Zaki's vertical layout over the increment only).
//
// An annotation write never changes data values, so the two sides share one
// data half: a data value has one bitmap that both sides read, and an
// annotation has a bitmap per side. A tuple's data values are indexed once,
// and a pure-data pattern's change is zero without counting. An appended
// batch (Cases 1–2) fills the after side only; its before side holds no
// annotation.
//
// The zero value is an empty index. Reset empties it for reuse and keeps its
// memory, so an index rebuilt per batch allocates only while it grows.
type BatchIndex struct {
	n       int
	words   int // bitmap words per side of an item
	entries []batchEntry
	bits    []uint64

	// slot finds an item's entry without hashing: the entry at the item's
	// id on its kind's spine holds gen<<32 | j, and entries stamped with an
	// older gen are stale, so Reset clears nothing (but once in 2³²).
	slot [numSlots][]uint64
	gen  uint32
}

// batchEntry is one item of a BatchIndex: where its bitmap on each side
// starts in bits and how many positions it is set at. A data value's two
// sides are one bitmap.
type batchEntry struct {
	item  itemset.Item
	off   [2]int
	count [2]int
}

// The sides of a BatchIndex, as indexes into batchEntry's arrays.
const (
	beforeSide = iota
	afterSide
)

// Reset empties the index and sizes it for n positions.
func (b *BatchIndex) Reset(n int) {
	b.n, b.words = n, (n+63)>>6
	b.entries, b.bits = b.entries[:0], b.bits[:0]
	if b.gen++; b.gen == 0 {
		for k := range b.slot {
			clear(b.slot[k])
		}
		b.gen = 1
	}
}

// Add records the tuple at position i: its data values, which both sides
// share, and its annotation sets before and after the write. i must be below
// the size given to Reset.
func (b *BatchIndex) Add(i int, data, before, after itemset.Itemset) {
	for _, a := range data {
		b.set(afterSide, i, a)
	}
	for _, a := range before {
		b.set(beforeSide, i, a)
	}
	for _, a := range after {
		b.set(afterSide, i, a)
	}
}

// set records that position i carries item a on side s, and on both sides
// when a is a data value.
func (b *BatchIndex) set(s, i int, a itemset.Item) {
	j := b.find(a)
	if j < 0 {
		k, id := kindSlot(a), a.ID()
		if id >= len(b.slot[k]) {
			b.slot[k] = append(b.slot[k], make([]uint64, id+1-len(b.slot[k]))...)
		}
		j = len(b.entries)
		b.slot[k][id] = uint64(b.gen)<<32 | uint64(j)
		en := batchEntry{item: a, off: [2]int{len(b.bits), len(b.bits)}}
		if a.IsAnnotation() {
			en.off[afterSide] += b.words
		}
		b.entries = append(b.entries, en)
		b.bits = append(b.bits, make([]uint64, en.off[afterSide]+b.words-len(b.bits))...)
	}
	en := &b.entries[j]
	w, bit := en.off[s]+i>>6, uint64(1)<<(uint(i)&63)
	if b.bits[w]&bit != 0 {
		return
	}
	b.bits[w] |= bit
	if a.IsAnnotation() {
		en.count[s]++
	} else {
		en.count[beforeSide]++
		en.count[afterSide]++
	}
}

// find returns a's place in entries, or -1.
func (b *BatchIndex) find(a itemset.Item) int {
	if spine := b.slot[kindSlot(a)]; a.ID() < len(spine) {
		if s := spine[a.ID()]; uint32(s>>32) == b.gen {
			return int(uint32(s))
		}
	}
	return -1
}

// postings returns the positions carrying a on side s.
func (b *BatchIndex) postings(s int, a itemset.Item) Postings {
	j := b.find(a)
	if j < 0 {
		return Postings{}
	}
	en := &b.entries[j]
	return Postings{bits: b.bits[en.off[s] : en.off[s]+b.words : en.off[s]+b.words], count: en.count[s]}
}

// Len returns the number of positions.
func (b *BatchIndex) Len() int { return b.n }

// Before returns the index's side before the write.
func (b *BatchIndex) Before() BatchSide { return BatchSide{b, beforeSide} }

// After returns the index's side after the write: for an appended batch, the
// appended tuples.
func (b *BatchIndex) After() BatchSide { return BatchSide{b, afterSide} }

// Change returns how much the write moved pattern's count over the batch,
// After().CountPattern(pattern) − Before().CountPattern(pattern), looking
// each item up once. A pattern without an annotation reads only the shared
// data half, so its change is zero without counting.
func (b *BatchIndex) Change(pattern itemset.Itemset) int {
	if !pattern.HasAnnotation() {
		return 0
	}
	var before, after [8][]uint64
	bb, ab := before[:0], after[:0]
	for _, it := range pattern {
		j := b.find(it)
		if j < 0 {
			return 0
		}
		en := &b.entries[j]
		if len(pattern) == 1 {
			return en.count[afterSide] - en.count[beforeSide]
		}
		bb = append(bb, b.bits[en.off[beforeSide]:en.off[beforeSide]+b.words])
		ab = append(ab, b.bits[en.off[afterSide]:en.off[afterSide]+b.words])
	}
	return countBitmaps(ab) - countBitmaps(bb)
}

// Changed returns the positions where the write changed annotation a — set on
// one side and not the other — built in reuse's memory, which the caller
// gives up.
func (b *BatchIndex) Changed(a itemset.Item, reuse Postings) Postings {
	out := Postings{bits: append(reuse.bits[:0], make([]uint64, b.words)...)}
	if j := b.find(a); j >= 0 {
		en := &b.entries[j]
		before := b.bits[en.off[beforeSide] : en.off[beforeSide]+b.words]
		for w, x := range b.bits[en.off[afterSide] : en.off[afterSide]+b.words] {
			out.bits[w] = x ^ before[w]
		}
		out.count = countBitmaps([][]uint64{out.bits})
	}
	return out
}

// CountWith sets counts[k] to the number of positions carrying every data
// value of x that are also in with[k]: one AND-popcount of x's shared
// bitmaps with each, by the relation's kernel. x must be pure data, and
// counts as long as with.
func (b *BatchIndex) CountWith(x itemset.Itemset, with []Postings, counts []int) {
	clear(counts)
	var buf [8][]uint64
	bitmaps := buf[:0]
	for _, it := range x {
		j := b.find(it)
		if j < 0 {
			return // an item of x is on no position of the batch
		}
		en := &b.entries[j]
		bitmaps = append(bitmaps, b.bits[en.off[afterSide]:en.off[afterSide]+b.words])
	}
	bitmaps = append(bitmaps, nil)
	for k, p := range with {
		if p.count > 0 {
			bitmaps[len(bitmaps)-1] = p.bits
			counts[k] = countBitmaps(bitmaps)
		}
	}
}

// BatchSide is one side of a BatchIndex: the shared data half with the
// side's annotations. It satisfies apriori.Source.
type BatchSide struct {
	b    *BatchIndex
	side int
}

// Len returns the number of positions.
func (s BatchSide) Len() int { return s.b.n }

// Postings returns the positions carrying item a on this side.
func (s BatchSide) Postings(a itemset.Item) Postings { return s.b.postings(s.side, a) }

// EachItem calls fn with every item set at some position on this side and
// the number of positions carrying it, in the order the items were first
// set.
func (s BatchSide) EachItem(fn func(a itemset.Item, n int)) {
	for _, en := range s.b.entries {
		if n := en.count[s.side]; n > 0 {
			fn(en.item, n)
		}
	}
}

// CountPattern counts the positions carrying every item of pattern on this
// side, as store.countPattern does for the relation and with its kernel.
func (s BatchSide) CountPattern(pattern itemset.Itemset) int {
	switch len(pattern) {
	case 0:
		return s.b.n
	case 1:
		return s.Postings(pattern[0]).count
	}
	var buf [8][]uint64
	bitmaps := buf[:0]
	for _, it := range pattern {
		bitmaps = append(bitmaps, s.Postings(it).bits)
	}
	return countBitmaps(bitmaps)
}
