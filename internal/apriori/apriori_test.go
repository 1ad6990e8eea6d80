package apriori

import (
	"math/rand"
	"testing"
	"testing/quick"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

func d(id int) itemset.Item { return itemset.DataItem(id) }
func a(id int) itemset.Item { return itemset.AnnotationItem(id) }

// txn builds a transaction from ids: positive → data, negative → annotation.
func txn(ids ...int) itemset.Itemset {
	items := make([]itemset.Item, 0, len(ids))
	for _, id := range ids {
		if id < 0 {
			items = append(items, a(-id))
		} else {
			items = append(items, d(id))
		}
	}
	return itemset.New(items...)
}

// mine runs Mine over a throwaway relation holding txns, the way a caller
// with a transaction slice reaches the bitmap counter.
func mine(txns []itemset.Itemset, cfg Config) *Catalog {
	return Mine(relation.FromTransactions(txns).View(), cfg)
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog(100)
	if c.Total() != 100 {
		t.Errorf("Total = %d", c.Total())
	}
	s1 := txn(1, 2)
	c.Add(s1, 7)
	if n, ok := c.Count(s1); !ok || n != 7 {
		t.Errorf("Count = %d, %v", n, ok)
	}
	if n, ok := c.CountKey(s1.Key()); !ok || n != 7 {
		t.Errorf("CountKey = %d, %v", n, ok)
	}
	c.Add(s1, 9) // replace
	if n, _ := c.Count(s1); n != 9 {
		t.Errorf("replaced Count = %d", n)
	}
	c.AddDelta(s1, 2)
	if n, _ := c.Count(s1); n != 11 {
		t.Errorf("AddDelta Count = %d", n)
	}
	c.AddDelta(txn(3), 5) // creates
	if n, _ := c.Count(txn(3)); n != 5 {
		t.Errorf("AddDelta create = %d", n)
	}
	if c.Len() != 2 || c.LenAt(1) != 1 || c.LenAt(2) != 1 {
		t.Errorf("Len=%d LenAt(1)=%d LenAt(2)=%d", c.Len(), c.LenAt(1), c.LenAt(2))
	}
	if c.MaxLen() != 2 {
		t.Errorf("MaxLen = %d", c.MaxLen())
	}
	if !c.Remove(s1) || c.Remove(s1) {
		t.Error("Remove semantics wrong")
	}
	if c.Has(s1) {
		t.Error("removed set still present")
	}
	if c.Remove(txn(9, 9, 9)) {
		t.Error("Remove of absent set = true")
	}
	c.SetTotal(200)
	if c.Total() != 200 {
		t.Error("SetTotal failed")
	}
}

func TestCatalogCloneEqualPrune(t *testing.T) {
	c := NewCatalog(10)
	c.Add(txn(1), 5)
	c.Add(txn(1, 2), 3)
	c.Add(txn(2), 4)

	clone := c.Clone()
	if !c.Equal(clone) {
		t.Error("clone not equal")
	}
	clone.Add(txn(3), 1)
	if c.Equal(clone) {
		t.Error("Equal ignores extra set")
	}
	clone.Remove(txn(3))
	clone.Add(txn(1), 6)
	if c.Equal(clone) {
		t.Error("Equal ignores count change")
	}

	removed := c.Prune(4)
	if removed != 1 {
		t.Errorf("Prune removed %d, want 1", removed)
	}
	if c.Has(txn(1, 2)) {
		t.Error("pruned set still present")
	}
}

func TestCatalogEachOrdering(t *testing.T) {
	c := NewCatalog(10)
	c.Add(txn(1, 2, 3), 1)
	c.Add(txn(1), 3)
	c.Add(txn(2, 3), 2)
	var sizes []int
	c.Each(func(s itemset.Itemset, n int) bool {
		sizes = append(sizes, s.Len())
		return true
	})
	for i := 1; i < len(sizes); i++ {
		if sizes[i-1] > sizes[i] {
			t.Errorf("Each not size-ordered: %v", sizes)
		}
	}
	sorted := c.Sorted()
	if len(sorted) != 3 || sorted[0].Set.Len() != 1 || sorted[2].Set.Len() != 3 {
		t.Errorf("Sorted = %v", sorted)
	}
	// Early stop.
	n := 0
	c.Each(func(itemset.Itemset, int) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

// The worked example: 5 transactions with known frequent sets at minCount 3.
func exampleTxns() []itemset.Itemset {
	return []itemset.Itemset{
		txn(1, 2, 3),
		txn(1, 2),
		txn(1, 3),
		txn(2, 3),
		txn(1, 2, 3, 4),
	}
}

func TestMineHandComputed(t *testing.T) {
	got := mine(exampleTxns(), Config{MinCount: 3, MaxAnnotations: -1})
	want := map[string]int{
		txn(1).String():    4,
		txn(2).String():    4,
		txn(3).String():    4,
		txn(1, 2).String(): 3,
		txn(1, 3).String(): 3,
		txn(2, 3).String(): 3,
	}
	if got.Len() != len(want) {
		t.Fatalf("mined %d sets, want %d: %v", got.Len(), len(want), got.Sorted())
	}
	got.Each(func(s itemset.Itemset, n int) bool {
		if want[s.String()] != n {
			t.Errorf("%v count = %d, want %d", s, n, want[s.String()])
		}
		return true
	})
	// {1,2,3} occurs only twice — must be absent.
	if got.Has(txn(1, 2, 3)) {
		t.Error("{1,2,3} reported frequent at minCount 3")
	}
}

func TestMineTripleLevel(t *testing.T) {
	txns := []itemset.Itemset{
		txn(1, 2, 3), txn(1, 2, 3), txn(1, 2, 3), txn(1, 2), txn(4),
	}
	got := mine(txns, Config{MinCount: 3, MaxAnnotations: -1})
	if n, ok := got.Count(txn(1, 2, 3)); !ok || n != 3 {
		t.Errorf("{1,2,3} = %d, %v; want 3", n, ok)
	}
	if got.MaxLen() != 3 {
		t.Errorf("MaxLen = %d", got.MaxLen())
	}
}

func TestMineAnnotationBudget(t *testing.T) {
	// Transactions where {d1, a1} and {d1, a1, a2} both occur 3 times.
	txns := []itemset.Itemset{
		txn(1, -1, -2), txn(1, -1, -2), txn(1, -1, -2),
	}
	// Budget 0: pure data only.
	pure := mine(txns, Config{MinCount: 3, MaxAnnotations: 0})
	if pure.Len() != 1 || !pure.Has(txn(1)) {
		t.Errorf("budget 0 mined %v", pure.Sorted())
	}
	// Budget 1: data + at most one annotation; {a1,a2} and {d1,a1,a2}
	// eliminated early.
	one := mine(txns, Config{MinCount: 3, MaxAnnotations: 1})
	if !one.Has(txn(1, -1)) || !one.Has(txn(1, -2)) {
		t.Errorf("budget 1 missing rule patterns: %v", one.Sorted())
	}
	if one.Has(txn(-1, -2)) || one.Has(txn(1, -1, -2)) {
		t.Errorf("budget 1 kept multi-annotation sets: %v", one.Sorted())
	}
	// Unbounded: the full lattice.
	all := mine(txns, Config{MinCount: 3, MaxAnnotations: -1})
	if !all.Has(txn(1, -1, -2)) {
		t.Errorf("unbounded missing {d1,a1,a2}: %v", all.Sorted())
	}
}

func TestMineMaxLen(t *testing.T) {
	txns := []itemset.Itemset{
		txn(1, 2, 3), txn(1, 2, 3), txn(1, 2, 3),
	}
	got := mine(txns, Config{MinCount: 3, MaxAnnotations: -1, MaxLen: 2})
	if got.MaxLen() != 2 {
		t.Errorf("MaxLen = %d, want 2", got.MaxLen())
	}
}

func TestMineEmptyAndDegenerate(t *testing.T) {
	if got := mine(nil, Config{MinCount: 1, MaxAnnotations: -1}); got.Len() != 0 {
		t.Errorf("empty txns mined %d sets", got.Len())
	}
	// MinCount clamps to 1; single transaction.
	got := mine([]itemset.Itemset{txn(1)}, Config{MinCount: 0, MaxAnnotations: -1})
	if n, ok := got.Count(txn(1)); !ok || n != 1 {
		t.Errorf("singleton count = %d, %v", n, ok)
	}
	// Threshold above the database size finds nothing.
	got = mine(exampleTxns(), Config{MinCount: 6, MaxAnnotations: -1})
	if got.Len() != 0 {
		t.Errorf("impossible threshold mined %d sets", got.Len())
	}
}

func TestRestrictNarrowsItems(t *testing.T) {
	txns := []itemset.Itemset{
		txn(1, -1, -2), txn(1, -1, -2), txn(1, -1, -2),
	}
	src := Restrict(relation.FromTransactions(txns).View(), itemset.Item.IsAnnotation)
	got := Mine(src, Config{MinCount: 3, MaxAnnotations: -1})
	want := []Entry{{txn(-1), 3}, {txn(-2), 3}, {txn(-1, -2), 3}}
	if sorted := got.Sorted(); len(sorted) != len(want) {
		t.Fatalf("restricted mine = %v, want %v", sorted, want)
	}
	for _, e := range want {
		if n, ok := got.Count(e.Set); !ok || n != e.Count {
			t.Errorf("%v = %d, %v; want %d", e.Set, n, ok, e.Count)
		}
	}
	if got.Total() != 3 {
		t.Errorf("Total = %d, want 3", got.Total())
	}
}

func TestMinCountFor(t *testing.T) {
	tests := []struct {
		sup  float64
		n    int
		want int
	}{
		{0.4, 5, 2}, // exact: 2/5 = 0.4
		{0.4, 8000, 3200},
		{0.5, 5, 3},       // 2.5 → 3
		{1.0 / 3.0, 3, 1}, // float repr of 1/3 must not round up to 2
		{0.3, 10, 3},
		{0.0, 10, 1}, // clamp to 1
		{0.9, 0, 1},  // empty database
		{1.0, 7, 7},
		{0.001, 10, 1},
	}
	for _, tc := range tests {
		if got := MinCountFor(tc.sup, tc.n); got != tc.want {
			t.Errorf("MinCountFor(%v, %d) = %d, want %d", tc.sup, tc.n, got, tc.want)
		}
	}
}

// TestPropertyDownwardClosure: every subset of a frequent set is frequent
// with count at least the superset's.
func TestPropertyDownwardClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func() bool {
		txns := randomTxns(rng, 80, 10, 5, 4)
		cat := mine(txns, Config{MinCount: 4, MaxAnnotations: -1})
		ok := true
		cat.Each(func(s itemset.Itemset, n int) bool {
			if s.Len() < 2 {
				return true
			}
			for i := 0; i < s.Len(); i++ {
				sub := s.WithoutIndex(i)
				m, has := cat.Count(sub)
				if !has || m < n {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCountsExact: every cataloged count equals a brute-force scan.
func TestPropertyCountsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	f := func() bool {
		txns := randomTxns(rng, 60, 10, 5, 4)
		cat := mine(txns, Config{MinCount: 3, MaxAnnotations: 1})
		ok := true
		cat.Each(func(s itemset.Itemset, n int) bool {
			actual := 0
			for _, tx := range txns {
				if tx.ContainsAll(s) {
					actual++
				}
			}
			if actual != n {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCompleteness: brute-force enumeration of frequent 1- and
// 2-itemsets matches the miner exactly.
func TestPropertyCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	f := func() bool {
		txns := randomTxns(rng, 40, 8, 4, 3)
		minCount := 3
		cat := mine(txns, Config{MinCount: minCount, MaxAnnotations: -1})
		// Universe of items.
		universe := map[itemset.Item]bool{}
		for _, tx := range txns {
			for _, it := range tx {
				universe[it] = true
			}
		}
		var items []itemset.Item
		for it := range universe {
			items = append(items, it)
		}
		// All pairs.
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				pair := itemset.New(items[i], items[j])
				n := 0
				for _, tx := range txns {
					if tx.ContainsAll(pair) {
						n++
					}
				}
				_, has := cat.Count(pair)
				if (n >= minCount) != has {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// randomTxns builds nTxns random transactions over dataDomain data values
// and annotDomain annotations, with up to maxLen data items each.
func randomTxns(rng *rand.Rand, nTxns, dataDomain, annotDomain, maxLen int) []itemset.Itemset {
	txns := make([]itemset.Itemset, nTxns)
	for i := range txns {
		var items []itemset.Item
		n := 1 + rng.Intn(maxLen)
		for v := 0; v < n; v++ {
			items = append(items, d(1+rng.Intn(dataDomain)))
		}
		for an := 1; an <= annotDomain; an++ {
			if rng.Intn(4) == 0 {
				items = append(items, a(an))
			}
		}
		txns[i] = itemset.New(items...)
	}
	return txns
}
