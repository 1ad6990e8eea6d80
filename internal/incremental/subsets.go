package incremental

import (
	"slices"

	"annotadb/internal/itemset"
)

// patternChange is one annotation pattern an attach or detach batch moved,
// with its key and how much the batch moved its count, as a magnitude.
type patternChange struct {
	set itemset.Itemset
	key itemset.Key
	n   int
}

// subsetCounter counts how many of a batch's changed tuples move each
// annotation pattern, without mining: on a tuple whose changed side (after an
// attach, before a detach) holds relevant annotations, a pattern over them
// moves exactly when it holds one the batch changed there, so the counter
// enumerates those subsets of each tuple and counts each one.
//
// A subset is found again by its fingerprint, the XOR of its items' 64-bit
// mixes, which the enumeration carries along for free; its items are stored
// beside its count and compared on every hit, so two patterns that share a
// fingerprint stay apart. Neither the keys nor the annotation count have a
// cap, and nothing allocates once the tables have grown.
type subsetCounter struct {
	// slots finds a pattern by fingerprint, open-addressed: gen<<32 | its
	// place in found, stale when stamped with an older gen.
	slots []uint64
	gen   uint32
	found []foundPattern
	items []itemset.Item // every found pattern's items, each stored once

	// The tuple being enumerated: its relevant changed-side annotations,
	// their mixes, which of them the batch changed and the last such place,
	// the size limit, and the subset being built.
	side  []itemset.Item
	mixes []uint64
	moved []bool
	last  int
	limit int
	cur   []itemset.Item
}

// foundPattern is one pattern a subsetCounter counted: its fingerprint, its
// items at items[off:off+size], and the number of tuples it moved on.
type foundPattern struct {
	fp        uint64
	off, size int
	n         int
}

// reset empties the counter for a new batch.
func (c *subsetCounter) reset() {
	c.found, c.items = c.found[:0], c.items[:0]
	if c.gen++; c.gen == 0 {
		clear(c.slots)
		c.gen = 1
	}
}

// beginTuple starts a tuple's changed side.
func (c *subsetCounter) beginTuple() { c.side, c.moved = c.side[:0], c.moved[:0] }

// add appends a relevant annotation of the tuple's changed side, in item
// order, and whether the batch changed it there.
func (c *subsetCounter) add(a itemset.Item, moved bool) {
	c.side = append(c.side, a)
	c.moved = append(c.moved, moved)
}

// countTuple counts every subset of the tuple's side of at most limit items
// that holds an annotation the batch changed.
func (c *subsetCounter) countTuple(limit int) {
	c.mixes, c.last, c.limit = c.mixes[:0], -1, limit
	for j, a := range c.side {
		c.mixes = append(c.mixes, mix(a))
		if c.moved[j] {
			c.last = j
		}
	}
	c.walk(0, 0, false)
}

// walk extends the subset in c.cur, whose fingerprint is fp and which holds
// a changed annotation when moved is set, by each side annotation from place
// from on. A subset without a changed annotation is not counted, and is not
// extended past the last one.
func (c *subsetCounter) walk(from int, fp uint64, moved bool) {
	for j := from; j < len(c.side) && (moved || j <= c.last); j++ {
		c.cur = append(c.cur, c.side[j])
		f, m := fp^c.mixes[j], moved || c.moved[j]
		if m {
			c.count(f)
		}
		if len(c.cur) < c.limit {
			c.walk(j+1, f, m)
		}
		c.cur = c.cur[:len(c.cur)-1]
	}
}

// count adds one to the subset in c.cur, whose fingerprint is fp.
func (c *subsetCounter) count(fp uint64) {
	if 2*(len(c.found)+1) > len(c.slots) {
		c.grow()
	}
	mask := uint64(len(c.slots) - 1)
	for h := fp & mask; ; h = (h + 1) & mask {
		s := c.slots[h]
		if uint32(s>>32) != c.gen {
			c.slots[h] = uint64(c.gen)<<32 | uint64(len(c.found))
			c.found = append(c.found, foundPattern{fp: fp, off: len(c.items), size: len(c.cur), n: 1})
			c.items = append(c.items, c.cur...)
			return
		}
		if f := &c.found[uint32(s)]; f.fp == fp && slices.Equal(c.items[f.off:f.off+f.size], c.cur) {
			f.n++
			return
		}
	}
}

// grow doubles the slot table and places every found pattern again.
func (c *subsetCounter) grow() {
	c.slots = make([]uint64, max(64, 2*len(c.slots)))
	mask := uint64(len(c.slots) - 1)
	for k, f := range c.found {
		h := f.fp & mask
		for uint32(c.slots[h]>>32) == c.gen {
			h = (h + 1) & mask
		}
		c.slots[h] = uint64(c.gen)<<32 | uint64(k)
	}
}

// appendChanges appends every counted pattern to out, building its key once.
// The patterns' items stay the counter's until its next reset.
func (c *subsetCounter) appendChanges(out []patternChange) []patternChange {
	for _, f := range c.found {
		set := itemset.Itemset(c.items[f.off : f.off+f.size : f.off+f.size])
		out = append(out, patternChange{set: set, key: set.Key(), n: f.n})
	}
	return out
}

// mix is an item's 64-bit fingerprint, the splitmix64 finalizer of its value.
func mix(a itemset.Item) uint64 {
	x := uint64(uint32(a)) + 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
