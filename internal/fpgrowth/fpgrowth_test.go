package fpgrowth

import (
	"math/rand"
	"testing"
	"testing/quick"

	"annotadb/internal/apriori"
	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

func d(id int) itemset.Item { return itemset.DataItem(id) }
func a(id int) itemset.Item { return itemset.AnnotationItem(id) }

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

func TestMineHandComputed(t *testing.T) {
	txns := []itemset.Itemset{
		txn(1, 2, 3),
		txn(1, 2),
		txn(1, 3),
		txn(2, 3),
		txn(1, 2, 3, 4),
	}
	got := Mine(txns, Config{MinCount: 3})
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
}

func TestMineClassicTextbookExample(t *testing.T) {
	// The canonical FP-Growth example (Han et al.): 5 transactions,
	// min support 3.
	txns := []itemset.Itemset{
		txn(1, 2, 5),    // f,a,c,d,g,i,m,p → using ints: representative
		txn(2, 4),       //
		txn(2, 3),       //
		txn(1, 2, 4),    //
		txn(1, 3),       //
		txn(2, 3),       //
		txn(1, 3),       //
		txn(1, 2, 3, 5), //
		txn(1, 2, 3),    //
	}
	got := Mine(txns, Config{MinCount: 2})
	// Spot-check counts against brute force.
	for _, probe := range []itemset.Itemset{txn(1), txn(2), txn(1, 2), txn(2, 3), txn(1, 2, 3), txn(5), txn(1, 2, 5)} {
		want := 0
		for _, tx := range txns {
			if tx.ContainsAll(probe) {
				want++
			}
		}
		n, has := got.Count(probe)
		if want >= 2 {
			if !has || n != want {
				t.Errorf("%v: got %d (present=%v), want %d", probe, n, has, want)
			}
		} else if has {
			t.Errorf("%v: present with %d, want absent", probe, n)
		}
	}
}

func TestMineEmptyAndClamp(t *testing.T) {
	if got := Mine(nil, Config{MinCount: 1}); got.Len() != 0 {
		t.Errorf("empty db mined %d", got.Len())
	}
	got := Mine([]itemset.Itemset{txn(1)}, Config{MinCount: -5})
	if n, ok := got.Count(txn(1)); !ok || n != 1 {
		t.Errorf("clamped mincount: %d, %v", n, ok)
	}
}

func TestMineMaxLen(t *testing.T) {
	txns := []itemset.Itemset{txn(1, 2, 3), txn(1, 2, 3), txn(1, 2, 3)}
	got := Mine(txns, Config{MinCount: 2, MaxLen: 2})
	if got.MaxLen() != 2 {
		t.Errorf("MaxLen = %d, want 2", got.MaxLen())
	}
	if got.LenAt(2) != 3 {
		t.Errorf("pairs = %d, want 3", got.LenAt(2))
	}
	got = Mine(txns, Config{MinCount: 2, MaxLen: 1})
	if got.MaxLen() != 1 || got.Len() != 3 {
		t.Errorf("MaxLen 1: %v", got.Sorted())
	}
}

func TestMineConditional(t *testing.T) {
	txns := []itemset.Itemset{
		txn(1, 2, -1),
		txn(1, 2, -1),
		txn(1, 3, -1),
		txn(1, 2), // no anchor
		txn(2, -1),
	}
	got := MineConditional(txns, a(1), Config{MinCount: 2})
	if got.Total() != 5 {
		t.Errorf("Total = %d, want full database size 5", got.Total())
	}
	// Among the 4 anchor transactions: {1}×3, {2}×3, {1,2}×2.
	checks := map[string]int{
		txn(1).String():    3,
		txn(2).String():    3,
		txn(1, 2).String(): 2,
	}
	for s, want := range checks {
		found := false
		got.Each(func(set itemset.Itemset, n int) bool {
			if set.String() == s {
				found = true
				if n != want {
					t.Errorf("%s count = %d, want %d", s, n, want)
				}
			}
			return true
		})
		if !found {
			t.Errorf("conditional set %s missing", s)
		}
	}
	// The anchor itself is removed, never emitted.
	got.Each(func(set itemset.Itemset, n int) bool {
		if set.Contains(a(1)) {
			t.Errorf("anchor leaked into conditional result: %v", set)
		}
		return true
	})
}

func TestMineConditionalNoAnchorTxns(t *testing.T) {
	got := MineConditional([]itemset.Itemset{txn(1), txn(2)}, a(9), Config{MinCount: 1})
	if got.Len() != 0 {
		t.Errorf("mined %d sets from empty conditional db", got.Len())
	}
}

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

// TestPropertyAgreesWithApriori is the keystone: two independent algorithms
// must produce identical catalogs on random databases.
func TestPropertyAgreesWithApriori(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		txns := randomTxns(rng, 50+rng.Intn(50), 10, 5, 5)
		minCount := 2 + rng.Intn(5)
		fp := Mine(txns, Config{MinCount: minCount})
		ap := apriori.Mine(relation.FromTransactions(txns).View(), apriori.Config{MinCount: minCount, MaxAnnotations: -1})
		if !fp.Equal(ap) {
			t.Logf("fp=%d sets, apriori=%d sets at minCount=%d", fp.Len(), ap.Len(), minCount)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyConditionalEqualsAnchoredPatterns: mining conditionally on an
// anchor equals filtering the full unconstrained lattice to sets containing
// the anchor (with the anchor stripped).
func TestPropertyConditionalEqualsAnchoredPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func() bool {
		txns := randomTxns(rng, 60, 8, 3, 4)
		anchor := a(1 + rng.Intn(3))
		minCount := 2 + rng.Intn(3)
		cond := MineConditional(txns, anchor, Config{MinCount: minCount})
		full := Mine(txns, Config{MinCount: minCount})
		// Every conditional set X must satisfy count(X∪{anchor}) in full.
		ok := true
		cond.Each(func(s itemset.Itemset, n int) bool {
			m, has := full.Count(s.Add(anchor))
			if !has || m != n {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
		// And conversely every full set containing the anchor maps back.
		full.Each(func(s itemset.Itemset, n int) bool {
			if !s.Contains(anchor) || s.Len() == 1 {
				return true
			}
			m, has := cond.Count(s.Remove(anchor))
			if !has || m != n {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
