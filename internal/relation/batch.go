package relation

import "annotadb/internal/itemset"

// BatchIndex is an inverted index over a handful of tuples at positions
// 0..Len()-1 — in practice the tuples one write batch changed, on one side of
// the write. It holds the relation's Postings and counts with the relation's
// kernel, so the change a batch makes to a pattern's count is
// after.CountPattern(p) − before.CountPattern(p), counted the way a full mine
// counts the relation (Zaki's vertical layout over the increment only).
//
// It satisfies apriori.Source. The zero value is an empty index; Reset
// empties it for reuse and keeps its memory, so an index rebuilt per batch
// allocates only while it grows.
type BatchIndex struct {
	n     int
	words int // bitmap words per item
	items []itemset.Item
	count []int
	bits  []uint64 // items[j]'s bitmap is bits[j*words : (j+1)*words]

	// slot finds an item's place in items without hashing: the entry at the
	// item's id on its kind's spine holds gen<<32 | j, and entries stamped
	// with an older gen are stale, so Reset clears nothing (but once in 2³²).
	slot [numSlots][]uint64
	gen  uint32
}

// Reset empties the index and sizes it for n positions.
func (b *BatchIndex) Reset(n int) {
	b.n, b.words = n, (n+63)>>6
	b.items, b.count, b.bits = b.items[:0], b.count[:0], b.bits[:0]
	if b.gen++; b.gen == 0 {
		for k := range b.slot {
			clear(b.slot[k])
		}
		b.gen = 1
	}
}

// Add records that position i carries every item of set. i must be below
// the size given to Reset.
func (b *BatchIndex) Add(i int, set itemset.Itemset) {
	for _, a := range set {
		b.Set(i, a)
	}
}

// Set records that position i carries item a. i must be below the size given
// to Reset.
func (b *BatchIndex) Set(i int, a itemset.Item) {
	j := b.find(a)
	if j < 0 {
		k, id := kindSlot(a), a.ID()
		if id >= len(b.slot[k]) {
			b.slot[k] = append(b.slot[k], make([]uint64, id+1-len(b.slot[k]))...)
		}
		j = len(b.items)
		b.slot[k][id] = uint64(b.gen)<<32 | uint64(j)
		b.items = append(b.items, a)
		b.count = append(b.count, 0)
		b.bits = append(b.bits, make([]uint64, b.words)...)
	}
	w, bit := j*b.words+i>>6, uint64(1)<<(uint(i)&63)
	if b.bits[w]&bit == 0 {
		b.bits[w] |= bit
		b.count[j]++
	}
}

// find returns a's place in items, or -1.
func (b *BatchIndex) find(a itemset.Item) int {
	if spine := b.slot[kindSlot(a)]; a.ID() < len(spine) {
		if s := spine[a.ID()]; uint32(s>>32) == b.gen {
			return int(uint32(s))
		}
	}
	return -1
}

// Postings returns the positions carrying item a.
func (b *BatchIndex) Postings(a itemset.Item) Postings {
	j := b.find(a)
	if j < 0 {
		return Postings{}
	}
	return Postings{bits: b.bits[j*b.words : (j+1)*b.words : (j+1)*b.words], count: b.count[j]}
}

// Len returns the number of positions.
func (b *BatchIndex) Len() int { return b.n }

// EachItem calls fn with every item set at some position and the number of
// positions carrying it, in the order the items were first set.
func (b *BatchIndex) EachItem(fn func(a itemset.Item, n int)) {
	for j, a := range b.items {
		fn(a, b.count[j])
	}
}

// CountPattern counts the positions carrying every item of pattern, as
// store.countPattern does for the relation and with its kernel.
func (b *BatchIndex) CountPattern(pattern itemset.Itemset) int {
	switch len(pattern) {
	case 0:
		return b.n
	case 1:
		return b.Postings(pattern[0]).count
	}
	var buf [8][]uint64
	bitmaps := buf[:0]
	for _, it := range pattern {
		bitmaps = append(bitmaps, b.Postings(it).bits)
	}
	return countBitmaps(bitmaps)
}
