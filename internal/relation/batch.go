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
// annotation has a bitmap per side. A pure-data pattern's change is zero
// without counting. An appended batch (Cases 1–2) is indexed tuple by tuple
// with Add, data values included, and fills the after side only; its before
// side holds no annotation. An annotation write is indexed from its Delta
// (IndexDelta): the changed tuples' annotation sets up front, and a data
// value's bitmap only when a read first asks for it, probed from the
// relation's own bitmap at the changed tuples. So a batch reads only the data
// values its patterns name, and a pattern whose data value is on no changed
// tuple counts zero once that bitmap comes out empty.
//
// Reads may build bitmaps, so an index serves one goroutine at a time. The
// zero value is an empty index. Reset empties it for reuse and keeps its
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

	// The data half of an index built by IndexDelta: the relation's data
	// postings as the write left them and the tuple at each position.
	lazy bool
	data []Postings
	rows []int
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
	b.lazy, b.data, b.rows = false, nil, b.rows[:0]
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

// IndexDelta empties the index and indexes the tuples an annotation write
// reported into d, the tuple d.Tuples[k] at position k: its annotation sets
// before and after the write now, and its data values as reads ask for them.
// Those reads probe the relation's data postings without its lock, which is
// sound because the bits they probe, below the relation's length, never
// change; the caller must not append to the relation while it reads the
// index.
func (b *BatchIndex) IndexDelta(d *Delta) {
	b.Reset(len(d.Tuples))
	b.lazy, b.data = true, d.data
	for i, t := range d.Tuples {
		b.rows = append(b.rows, t.Index)
		for _, a := range t.Before {
			b.set(beforeSide, i, a)
		}
		for _, a := range t.After {
			b.set(afterSide, i, a)
		}
	}
}

// set records that position i carries item a on side s, and on both sides
// when a is a data value.
func (b *BatchIndex) set(s, i int, a itemset.Item) {
	j := b.find(a)
	if j < 0 {
		j = b.add(a)
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

// add makes an empty entry for a, which has none, and returns its place.
func (b *BatchIndex) add(a itemset.Item) int {
	k, id := kindSlot(a), a.ID()
	if id >= len(b.slot[k]) {
		b.slot[k] = append(b.slot[k], make([]uint64, id+1-len(b.slot[k]))...)
	}
	j := len(b.entries)
	b.slot[k][id] = uint64(b.gen)<<32 | uint64(j)
	en := batchEntry{item: a, off: [2]int{len(b.bits), len(b.bits)}}
	if a.IsAnnotation() {
		en.off[afterSide] += b.words
	}
	b.entries = append(b.entries, en)
	b.bits = append(b.bits, make([]uint64, en.off[afterSide]+b.words-len(b.bits))...)
	return j
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

// entry returns a's place in entries, or -1 when a is on no position. In an
// index built by IndexDelta a data value's entry is built on the first ask,
// by probing the value's bitmap in the relation at each position's tuple,
// and kept even when it comes out empty.
func (b *BatchIndex) entry(a itemset.Item) int {
	j := b.find(a)
	if j >= 0 || !b.lazy || a.IsAnnotation() {
		return j
	}
	j = b.add(a)
	if a.ID() >= len(b.data) {
		return j
	}
	src, n := b.data[a.ID()].bits, 0
	dst := b.side(j, afterSide)
	for k, i := range b.rows {
		// Without a branch on the bit: a frequent value's bits are as
		// likely set as not.
		if w := i >> 6; w < len(src) {
			x := src[w] >> (uint(i) & 63) & 1
			dst[k>>6] |= x << (uint(k) & 63)
			n += int(x)
		}
	}
	b.entries[j].count = [2]int{n, n}
	return j
}

// lookup appends the entry of every item of pattern to js, last item first:
// annotations sort last, so an annotation the batch did not touch ends the
// lookup before a data bitmap is built. It reports false, and the pattern
// counts zero on both sides, when an item is on no position.
func (b *BatchIndex) lookup(pattern itemset.Itemset, js []int) ([]int, bool) {
	for k := len(pattern) - 1; k >= 0; k-- {
		j := b.entry(pattern[k])
		if j < 0 || b.entries[j].count == [2]int{} {
			return js, false
		}
		js = append(js, j)
	}
	return js, true
}

// side returns entry j's bitmap on side s.
func (b *BatchIndex) side(j, s int) []uint64 {
	off := b.entries[j].off[s]
	return b.bits[off : off+b.words : off+b.words]
}

// postings returns the positions carrying a on side s.
func (b *BatchIndex) postings(s int, a itemset.Item) Postings {
	j := b.entry(a)
	if j < 0 {
		return Postings{}
	}
	return Postings{bits: b.side(j, s), count: b.entries[j].count[s]}
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
	var buf [8]int
	js, ok := b.lookup(pattern, buf[:0])
	if !ok {
		return 0
	}
	if len(js) == 1 {
		en := &b.entries[js[0]]
		return en.count[afterSide] - en.count[beforeSide]
	}
	var before, after [8][]uint64
	bb, ab := before[:0], after[:0]
	for _, j := range js {
		bb = append(bb, b.side(j, beforeSide))
		ab = append(ab, b.side(j, afterSide))
	}
	return countBitmaps(ab) - countBitmaps(bb)
}

// Changed returns the positions where the write changed annotation a — set on
// one side and not the other — built in reuse's memory, which the caller
// gives up.
func (b *BatchIndex) Changed(a itemset.Item, reuse Postings) Postings {
	out := Postings{bits: append(reuse.bits[:0], make([]uint64, b.words)...)}
	if j := b.find(a); j >= 0 {
		before := b.side(j, beforeSide)
		for w, x := range b.side(j, afterSide) {
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
	var buf [8]int
	js, ok := b.lookup(x, buf[:0])
	if !ok {
		return // a value of x is on no position of the batch
	}
	var bitmapBuf [8][]uint64
	bitmaps := bitmapBuf[:0]
	for _, j := range js {
		bitmaps = append(bitmaps, b.side(j, afterSide))
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
// set. On an index built by IndexDelta it first builds every data value's
// bitmap.
func (s BatchSide) EachItem(fn func(a itemset.Item, n int)) {
	if s.b.lazy {
		for id, p := range s.b.data {
			if p.count > 0 {
				s.b.entry(slotItem(dataSlot, id))
			}
		}
	}
	for _, en := range s.b.entries {
		if n := en.count[s.side]; n > 0 {
			fn(en.item, n)
		}
	}
}

// CountPattern counts the positions carrying every item of pattern on this
// side, as store.countPattern does for the relation and with its kernel.
func (s BatchSide) CountPattern(pattern itemset.Itemset) int {
	if len(pattern) == 0 {
		return s.b.n
	}
	var buf [8]int
	js, ok := s.b.lookup(pattern, buf[:0])
	if !ok {
		return 0
	}
	if len(js) == 1 {
		return s.b.entries[js[0]].count[s.side]
	}
	var bitmapBuf [8][]uint64
	bitmaps := bitmapBuf[:0]
	for _, j := range js {
		bitmaps = append(bitmaps, s.b.side(j, s.side))
	}
	return countBitmaps(bitmaps)
}
