package apriori

import (
	"sort"

	"annotadb/internal/itemset"
)

// Config parameterizes a mining run.
type Config struct {
	// MinCount is the absolute support threshold: an itemset is frequent
	// when at least MinCount transactions contain it. Callers derive it as
	// ceil(minSupport × N).
	MinCount int
	// MaxAnnotations bounds annotations per itemset: 0 mines pure-data
	// sets, 1 mines Def. 4.2 rule patterns, -1 disables the bound (used for
	// the pure-annotation projection of Def. 4.3). See the package comment
	// for why this is the sound reading of the paper's early elimination.
	MaxAnnotations int
	// MaxLen bounds itemset size; 0 means unbounded.
	MaxLen int
}

// annotationsAllowed reports whether a set with na annotations is inside the
// constraint budget.
func (c Config) annotationsAllowed(na int) bool {
	return c.MaxAnnotations < 0 || na <= c.MaxAnnotations
}

// Source is what the level-wise loop reads: the number of transactions,
// every item with the number of transactions carrying it, and the count of
// any candidate. *relation.View satisfies it from its inverted index, so a
// candidate is counted by ANDing and popcounting its items' bitmaps.
type Source interface {
	Len() int
	EachItem(fn func(it itemset.Item, n int))
	CountPattern(pattern itemset.Itemset) int
}

// Restrict narrows src's item walk to the items keep admits. Every candidate
// is built from walked items, so the catalog Mine returns over the result
// holds only admitted items; counts still come from src.
func Restrict(src Source, keep func(itemset.Item) bool) Source {
	return restricted{src, keep}
}

type restricted struct {
	Source
	keep func(itemset.Item) bool
}

func (r restricted) EachItem(fn func(it itemset.Item, n int)) {
	r.Source.EachItem(func(it itemset.Item, n int) {
		if r.keep(it) {
			fn(it, n)
		}
	})
}

// Mine runs the level-wise algorithm over src and returns the catalog of
// frequent itemsets satisfying the annotation constraint.
//
// MinCount below 1 is clamped to 1: an itemset that occurs zero times is
// never frequent, and a zero threshold would enumerate the power set.
func Mine(src Source, cfg Config) *Catalog {
	if cfg.MinCount < 1 {
		cfg.MinCount = 1
	}
	catalog := NewCatalog(src.Len())

	// L1: the single items, with their counts from the frequency table.
	var frontier []itemset.Itemset
	src.EachItem(func(it itemset.Item, n int) {
		if n >= cfg.MinCount && cfg.annotationsAllowed(boolToInt(it.IsAnnotation())) {
			set := itemset.New(it)
			catalog.Add(set, n)
			frontier = append(frontier, set)
		}
	})
	sortSets(frontier)

	for k := 2; len(frontier) > 1 && (cfg.MaxLen == 0 || k <= cfg.MaxLen); k++ {
		cands := generate(frontier, catalog, cfg)
		if len(cands) == 0 {
			break
		}
		frontier = frontier[:0]
		for _, cand := range cands {
			if n := src.CountPattern(cand); n >= cfg.MinCount {
				catalog.Add(cand, n)
				frontier = append(frontier, cand)
			}
		}
		sortSets(frontier)
	}
	return catalog
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortSets(sets []itemset.Itemset) {
	sort.Slice(sets, func(i, j int) bool { return sets[i].Compare(sets[j]) < 0 })
}

// generate implements the Apriori join + prune. The frontier must be sorted;
// the join pairs sets sharing a (k-1)-prefix, which after sorting are
// adjacent runs.
func generate(frontier []itemset.Itemset, catalog *Catalog, cfg Config) []itemset.Itemset {
	var cands []itemset.Itemset
	for i := 0; i < len(frontier); i++ {
		for j := i + 1; j < len(frontier); j++ {
			cand, ok := frontier[i].PrefixJoin(frontier[j])
			if !ok {
				// Sorted order: once the prefix diverges, no later j joins.
				break
			}
			// Annotation-constraint elimination (the paper's §3.1
			// modification), applied at generation time.
			if !cfg.annotationsAllowed(cand.CountAnnotations()) {
				continue
			}
			if prunable(cand, catalog) {
				continue
			}
			cands = append(cands, cand)
		}
	}
	return cands
}

// prunable reports whether any (k-1)-subset of cand is infrequent. The two
// subsets formed by dropping the last two positions are the join parents and
// are frequent by construction.
func prunable(cand itemset.Itemset, catalog *Catalog) bool {
	for i := 0; i < len(cand)-2; i++ {
		if !catalog.Has(cand.WithoutIndex(i)) {
			return true
		}
	}
	return false
}

// MinCountFor converts a fractional minimum support over n transactions to
// the absolute threshold used by Mine: the smallest count c with c/n ≥ sup.
// A tiny epsilon guards ratios like 0.4×5 that binary floating point would
// otherwise round up to 3.
func MinCountFor(sup float64, n int) int {
	if n <= 0 {
		return 1
	}
	c := int(ceil(sup * float64(n)))
	if c < 1 {
		c = 1
	}
	return c
}

func ceil(x float64) float64 {
	i := float64(int64(x))
	if x <= i+1e-9 {
		return i
	}
	return i + 1
}
