// Package fpgrowth implements the FP-Growth frequent-itemset miner
// (Han, Pei & Yin). The paper notes that its correlations "can be discovered
// with any of the state-of-art techniques"; annotadb ships FP-Growth next to
// Apriori both as that interchangeable second technique and as the
// comparator in the E10 benchmark. It mines transactions, not bitmaps.
//
// The miner produces the same apriori.Catalog hand-off format, so the rule
// generator and the incremental engine are indifferent to which algorithm
// produced the frequent sets. Unlike the Apriori implementation, FP-Growth
// explores the unconstrained lattice; the mining driver applies the paper's
// annotation constraint by mining per-annotation conditional databases
// instead (see mining.Mine), which yields identical rule patterns.
package fpgrowth

import (
	"sort"

	"annotadb/internal/apriori"
	"annotadb/internal/itemset"
)

// Config parameterizes a mining run.
type Config struct {
	// MinCount is the absolute support threshold (≥ 1; lower values clamp).
	MinCount int
	// MaxLen bounds emitted itemset size; 0 means unbounded.
	MaxLen int
}

// Mine returns the catalog of frequent itemsets in txns.
func Mine(txns []itemset.Itemset, cfg Config) *apriori.Catalog {
	if cfg.MinCount < 1 {
		cfg.MinCount = 1
	}
	catalog := apriori.NewCatalog(len(txns))

	// Weighted transactions: the top-level database has unit weights;
	// conditional pattern bases carry path counts.
	weighted := make([]wtxn, len(txns))
	for i, t := range txns {
		weighted[i] = wtxn{items: t, count: 1}
	}
	mine(weighted, nil, cfg, catalog)
	return catalog
}

type wtxn struct {
	items itemset.Itemset
	count int
}

// mine recursively mines the (conditional) database db for itemsets
// extending suffix, emitting results into catalog.
func mine(db []wtxn, suffix itemset.Itemset, cfg Config, catalog *apriori.Catalog) {
	if cfg.MaxLen > 0 && suffix.Len() >= cfg.MaxLen {
		return
	}
	// Count items in this conditional database.
	counts := make(map[itemset.Item]int)
	for _, t := range db {
		for _, it := range t.items {
			counts[it] += t.count
		}
	}
	// Frequent items, ordered by descending count (ties broken by item) —
	// the f-list. Determinism matters for reproducible benchmarks.
	type ic struct {
		item  itemset.Item
		count int
	}
	var flist []ic
	for it, n := range counts {
		if n >= cfg.MinCount {
			flist = append(flist, ic{it, n})
		}
	}
	sort.Slice(flist, func(i, j int) bool {
		if flist[i].count != flist[j].count {
			return flist[i].count > flist[j].count
		}
		return flist[i].item < flist[j].item
	})
	if len(flist) == 0 {
		return
	}
	rank := make(map[itemset.Item]int, len(flist))
	for i, e := range flist {
		rank[e.item] = i
	}

	// Build the FP-tree over f-list-filtered, rank-ordered transactions.
	tree := newTree()
	for _, t := range db {
		filtered := make([]itemset.Item, 0, len(t.items))
		for _, it := range t.items {
			if _, ok := rank[it]; ok {
				filtered = append(filtered, it)
			}
		}
		if len(filtered) == 0 {
			continue
		}
		sort.Slice(filtered, func(i, j int) bool { return rank[filtered[i]] < rank[filtered[j]] })
		tree.insert(filtered, t.count)
	}

	// Walk items in reverse f-list order (least frequent first), emitting
	// suffix ∪ {item} and recursing on the conditional pattern base.
	for i := len(flist) - 1; i >= 0; i-- {
		e := flist[i]
		newSuffix := suffix.Add(e.item)
		catalog.Add(newSuffix, e.count)
		if cfg.MaxLen > 0 && newSuffix.Len() >= cfg.MaxLen {
			continue
		}
		var base []wtxn
		for node := tree.headers[e.item]; node != nil; node = node.next {
			path := node.pathToRoot()
			if len(path) > 0 {
				base = append(base, wtxn{items: itemset.New(path...), count: node.count})
			}
		}
		if len(base) > 0 {
			mine(base, newSuffix, cfg, catalog)
		}
	}
}

type fpnode struct {
	item     itemset.Item
	count    int
	parent   *fpnode
	children map[itemset.Item]*fpnode
	next     *fpnode // header chain
}

func (n *fpnode) pathToRoot() []itemset.Item {
	var path []itemset.Item
	for p := n.parent; p != nil && p.parent != nil; p = p.parent {
		path = append(path, p.item)
	}
	return path
}

type fptree struct {
	root    *fpnode
	headers map[itemset.Item]*fpnode
}

func newTree() *fptree {
	return &fptree{
		root:    &fpnode{children: make(map[itemset.Item]*fpnode)},
		headers: make(map[itemset.Item]*fpnode),
	}
}

func (t *fptree) insert(items []itemset.Item, count int) {
	n := t.root
	for _, it := range items {
		child, ok := n.children[it]
		if !ok {
			child = &fpnode{
				item:     it,
				parent:   n,
				children: make(map[itemset.Item]*fpnode),
				next:     t.headers[it],
			}
			t.headers[it] = child
			n.children[it] = child
		}
		child.count += count
		n = child
	}
}

// MineConditional mines frequent itemsets among only the transactions that
// contain anchor, with the anchor removed from each transaction. The count
// of an emitted set X equals the count of X ∪ {anchor} in the full database,
// which is exactly what Def. 4.2/4.3 rule-pattern mining needs.
func MineConditional(txns []itemset.Itemset, anchor itemset.Item, cfg Config) *apriori.Catalog {
	var cond []itemset.Itemset
	for _, t := range txns {
		if t.Contains(anchor) {
			cond = append(cond, t.Remove(anchor))
		}
	}
	catalog := Mine(cond, cfg)
	catalog.SetTotal(len(txns))
	return catalog
}
