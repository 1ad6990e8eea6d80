package relation

import (
	"math/bits"

	"annotadb/internal/itemset"
)

// Postings is one item's entry in the inverted index (§4.3): a bitmap over
// tuple positions, bit i set when tuple i carries the annotation or data
// value, with the item's frequency — the population count — kept beside it.
// The bitmap is as long as the highest position ever set needs, so a rare
// item on early tuples stays small.
//
// A Postings handed out by a View belongs to that frozen generation: the
// relation copies a bitmap before its first write after a capture and never
// writes a word a view can read. The zero value is the empty set.
type Postings struct {
	bits  []uint64
	count int
}

// Len returns the number of positions in the set — the item's frequency.
func (p Postings) Len() int { return p.count }

// Contains reports whether position i is in the set.
func (p Postings) Contains(i int) bool {
	w := i >> 6
	return i >= 0 && w < len(p.bits) && p.bits[w]&(1<<(uint(i)&63)) != 0
}

// CountBelow returns the number of positions in the set below n.
func (p Postings) CountBelow(n int) int {
	if n <= 0 {
		return 0
	}
	w := n >> 6
	if w >= len(p.bits) {
		return p.count
	}
	c := bits.OnesCount64(p.bits[w] & (1<<(uint(n)&63) - 1))
	for _, x := range p.bits[:w] {
		c += bits.OnesCount64(x)
	}
	return c
}

// Each calls fn for every position in the set, ascending, until fn returns
// false.
func (p Postings) Each(fn func(i int) bool) {
	for w, x := range p.bits {
		for x != 0 {
			if !fn(w<<6 | bits.TrailingZeros64(x)) {
				return
			}
			x &= x - 1
		}
	}
}

// The postings spines, one per item kind: raw annotation, derived label and
// data value ids are each dense from 1 (Dictionary), so each kind indexes its
// own slice.
const (
	rawSlot = iota
	derivedSlot
	dataSlot
	numSlots
)

// kindSlot is the postings spine item a lives on.
func kindSlot(a itemset.Item) int {
	switch {
	case a.IsDerived():
		return derivedSlot
	case a.IsAnnotation():
		return rawSlot
	}
	return dataSlot
}

// slotItem is the item at id on spine k, kindSlot's inverse.
func slotItem(k, id int) itemset.Item {
	switch k {
	case derivedSlot:
		return itemset.DerivedItem(id)
	case rawSlot:
		return itemset.AnnotationItem(id)
	}
	return itemset.DataItem(id)
}
