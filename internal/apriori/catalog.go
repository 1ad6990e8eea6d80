// Package apriori implements the level-wise frequent-itemset miner of
// Agrawal & Srikant (the paper's Figure 3) with the annotation constraint the
// paper adds: "the early elimination of any candidate patterns that didn't
// include at least one annotation" (§3.1).
//
// Candidates are counted from an inverted index, not by scanning
// transactions: the miner reads a Source — in practice a relation.View —
// whose item walk seeds level 1 and whose CountPattern ANDs the candidate's
// per-item tuple bitmaps and popcounts the result. This is the vertical
// layout of Zaki ("Scalable Algorithms for Association Mining", TKDE 2000),
// and it is the same count the paper's §4.3 maintenance takes from its
// annotation index. The incremental engine mines a side of a
// relation.BatchIndex — the same bitmaps and kernel over one write batch's
// tuples — the same way.
//
// The constraint deserves a note, because a literal reading would break the
// algorithm. Apriori's candidate join builds a k-itemset from two (k-1)-
// itemsets sharing a (k-2)-prefix; for a rule pattern X ∪ {a} (X pure data,
// a an annotation), one of those two parents is the pure-data set X itself.
// Pure-data itemsets therefore cannot be eliminated — they are both the
// generation scaffolding and the confidence denominators ("de-numerators" in
// the paper's Figures 12–13). What *can* be eliminated early is the genuinely
// exponential part: itemsets mixing two or more annotations with data
// values, which can never be a Def. 4.2 rule pattern. The miner exposes this
// as a MaxAnnotations budget: 0 mines pure-data sets, 1 mines rule patterns
// (data plus at most one annotation), -1 disables the constraint (used for
// the pure-annotation projection of Def. 4.3, where every item is an
// annotation).
package apriori

import (
	"fmt"
	"sort"

	"annotadb/internal/itemset"
)

// Catalog stores frequent itemsets with their exact transaction counts,
// grouped by itemset size. Size-k sets live in level k (level 0 is unused).
// A Catalog is the hand-off format between the miners, the rule generator,
// and the incremental engine's pattern caches.
type Catalog struct {
	levels []map[itemset.Key]int
	total  int // transactions counted, the support denominator
}

// NewCatalog returns an empty catalog for a database of total transactions.
func NewCatalog(total int) *Catalog {
	return &Catalog{total: total}
}

// Total returns the number of transactions the catalog was mined over.
func (c *Catalog) Total() int { return c.total }

// SetTotal updates the transaction count (used by the incremental engine
// when tuples are appended).
func (c *Catalog) SetTotal(total int) { c.total = total }

// Add records set with its count, replacing an existing entry.
func (c *Catalog) Add(set itemset.Itemset, count int) {
	k := set.Len()
	for len(c.levels) <= k {
		c.levels = append(c.levels, nil)
	}
	if c.levels[k] == nil {
		c.levels[k] = make(map[itemset.Key]int)
	}
	c.levels[k][set.Key()] = count
}

// Remove deletes set from the catalog, reporting whether it was present.
func (c *Catalog) Remove(set itemset.Itemset) bool {
	k := set.Len()
	if k >= len(c.levels) || c.levels[k] == nil {
		return false
	}
	key := set.Key()
	if _, ok := c.levels[k][key]; !ok {
		return false
	}
	delete(c.levels[k], key)
	return true
}

// Count returns the stored count for set.
func (c *Catalog) Count(set itemset.Itemset) (int, bool) {
	k := set.Len()
	if k >= len(c.levels) || c.levels[k] == nil {
		return 0, false
	}
	n, ok := c.levels[k][set.Key()]
	return n, ok
}

// CountKey returns the stored count for a pre-encoded key of known size.
func (c *Catalog) CountKey(key itemset.Key) (int, bool) {
	k := key.Len()
	if k >= len(c.levels) || c.levels[k] == nil {
		return 0, false
	}
	n, ok := c.levels[k][key]
	return n, ok
}

// Has reports whether set is present.
func (c *Catalog) Has(set itemset.Itemset) bool {
	_, ok := c.Count(set)
	return ok
}

// AddDelta adjusts the count of set by delta, creating the entry when absent.
func (c *Catalog) AddDelta(set itemset.Itemset, delta int) {
	if n, ok := c.Count(set); ok {
		c.Add(set, n+delta)
		return
	}
	c.Add(set, delta)
}

// MaxLen returns the size of the largest stored itemset.
func (c *Catalog) MaxLen() int {
	for k := len(c.levels) - 1; k >= 1; k-- {
		if len(c.levels[k]) > 0 {
			return k
		}
	}
	return 0
}

// Len returns the total number of stored itemsets.
func (c *Catalog) Len() int {
	n := 0
	for k := 1; k < len(c.levels); k++ {
		n += len(c.levels[k])
	}
	return n
}

// LenAt returns the number of stored itemsets of size k.
func (c *Catalog) LenAt(k int) int {
	if k < 0 || k >= len(c.levels) {
		return 0
	}
	return len(c.levels[k])
}

// EachAt visits the size-k itemsets in unspecified order. Decoding errors
// cannot occur for keys produced by Add; fn returning false stops the walk.
func (c *Catalog) EachAt(k int, fn func(set itemset.Itemset, count int) bool) {
	if k < 0 || k >= len(c.levels) {
		return
	}
	for key, n := range c.levels[k] {
		set, err := key.Decode()
		if err != nil {
			panic(fmt.Sprintf("apriori: corrupt catalog key: %v", err))
		}
		if !fn(set, n) {
			return
		}
	}
}

// Each visits every stored itemset, smallest sizes first.
func (c *Catalog) Each(fn func(set itemset.Itemset, count int) bool) {
	stop := false
	for k := 1; k < len(c.levels) && !stop; k++ {
		c.EachAt(k, func(set itemset.Itemset, count int) bool {
			if !fn(set, count) {
				stop = true
				return false
			}
			return true
		})
	}
}

// Sorted returns all itemsets ordered by (size, lexicographic), with counts.
// Used for deterministic test output.
func (c *Catalog) Sorted() []Entry {
	var out []Entry
	c.Each(func(set itemset.Itemset, count int) bool {
		out = append(out, Entry{Set: set, Count: count})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Set.Compare(out[j].Set) < 0 })
	return out
}

// Entry pairs an itemset with its transaction count.
type Entry struct {
	Set   itemset.Itemset
	Count int
}

// Clone returns an independent deep copy.
func (c *Catalog) Clone() *Catalog {
	out := NewCatalog(c.total)
	out.levels = make([]map[itemset.Key]int, len(c.levels))
	for k, level := range c.levels {
		if level == nil {
			continue
		}
		m := make(map[itemset.Key]int, len(level))
		for key, n := range level {
			m[key] = n
		}
		out.levels[k] = m
	}
	return out
}

// Equal reports whether two catalogs store exactly the same sets and counts.
func (c *Catalog) Equal(o *Catalog) bool {
	if c.Len() != o.Len() {
		return false
	}
	equal := true
	c.Each(func(set itemset.Itemset, count int) bool {
		if n, ok := o.Count(set); !ok || n != count {
			equal = false
			return false
		}
		return true
	})
	return equal
}

// Prune removes every itemset whose count falls below minCount. The
// incremental engine calls this after Case 2 batches, where the denominator
// grows and previously frequent patterns can fall out.
func (c *Catalog) Prune(minCount int) int {
	removed := 0
	for k := 1; k < len(c.levels); k++ {
		for key, n := range c.levels[k] {
			if n < minCount {
				delete(c.levels[k], key)
				removed++
			}
		}
	}
	return removed
}
