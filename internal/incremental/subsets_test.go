package incremental

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"annotadb/internal/apriori"
	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
)

// referencePatternChanges is how annotPatternChanges counted before it
// enumerated subsets directly, kept as the reference the direct count must
// equal: the changed side of every tuple with a relevant change, over its
// relevant annotations, is indexed and mined with Apriori at MinCount 1 and
// the configured MaxLen, and each mined pattern's change is counted over the
// batch index. The budget is charged the same way and checked before
// anything is mined.
func referencePatternChanges(e *Engine, remove bool) (map[itemset.Key]int, bool) {
	budget := int64(e.opts.subsetBudget())
	var spent int64
	var hits []itemset.Itemset
	for _, t := range e.delta.Tuples {
		side, other := t.After, t.Before
		if remove {
			side, other = t.Before, t.After
		}
		n, hit := 0, false
		for _, a := range side {
			if e.relevant.has(a) {
				n++
				hit = hit || !other.Contains(a)
			}
		}
		if !hit {
			continue
		}
		limit := n
		if e.cfg.MaxLen > 0 && e.cfg.MaxLen < limit {
			limit = e.cfg.MaxLen
		}
		for k := 1; k <= limit; k++ {
			if spent += itemset.Binomial(n, k); spent > budget {
				return nil, false
			}
		}
		hits = append(hits, side)
	}
	var mined relation.BatchIndex
	mined.Reset(len(hits))
	for j, side := range hits {
		mined.Add(j, nil, nil, side.Filter(e.relevant.has))
	}
	sign := 1
	if remove {
		sign = -1
	}
	changes := make(map[itemset.Key]int)
	cat := apriori.Mine(mined.After(), apriori.Config{MinCount: 1, MaxAnnotations: -1, MaxLen: e.cfg.MaxLen})
	cat.Each(func(p itemset.Itemset, _ int) bool {
		if c := sign * e.batch.Change(p); c != 0 {
			changes[p.Key()] = c
		}
		return true
	})
	return changes, true
}

// batchCharge is what the batch in e.delta charges against SubsetBudget.
func batchCharge(e *Engine, remove bool) int64 {
	var spent int64
	for _, t := range e.delta.Tuples {
		side, other := t.After, t.Before
		if remove {
			side, other = t.Before, t.After
		}
		relevant := side.Filter(e.relevant.has)
		if !slices.ContainsFunc(relevant, func(a itemset.Item) bool { return !other.Contains(a) }) {
			continue
		}
		limit := len(relevant)
		if e.cfg.MaxLen > 0 && e.cfg.MaxLen < limit {
			limit = e.cfg.MaxLen
		}
		for k := 1; k <= limit; k++ {
			spent += itemset.Binomial(len(relevant), k)
		}
	}
	return spent
}

// probeBatch writes batch to e's relation and indexes it as signedPass does
// before Phase A, runs check when it changed an annotation the mining view
// sees, and undoes the write.
func probeBatch(t *testing.T, e *Engine, batch []relation.AnnotationUpdate, remove bool, check func()) {
	t.Helper()
	if err := e.rel.ApplyDelta(batch, remove, &e.delta); err != nil {
		t.Fatal(err)
	}
	applied := slices.Clone(e.delta.Applied)
	if !remove {
		e.refreshRelevance()
	}
	if len(applied) > 0 && e.indexDelta() {
		check()
	}
	if err := e.rel.ApplyDelta(applied, !remove, &e.delta); err != nil {
		t.Fatal(err)
	}
	e.refreshRelevance()
}

// checkPatternChanges compares the direct count with the reference for the
// batch in e.delta: the same fallback decision, and without one the same
// patterns with the same magnitudes. It returns the number of patterns.
func checkPatternChanges(t *testing.T, e *Engine, remove bool, context string) int {
	t.Helper()
	direct, ok := e.annotPatternChanges(remove)
	got := make(map[itemset.Key]int)
	for _, c := range direct {
		if c.key != c.set.Key() || !c.set.Wellformed() || !c.set.PureAnnotations() {
			t.Fatalf("%s: pattern %v under key %q", context, c.set, c.key)
		}
		if _, dup := got[c.key]; dup {
			t.Fatalf("%s: pattern %v counted twice", context, c.set)
		}
		got[c.key] = c.n
	}
	want, wantOK := referencePatternChanges(e, remove)
	if ok != wantOK {
		t.Fatalf("%s: direct count ok=%v, reference ok=%v (charge %d, budget %d)", context, ok, wantOK, batchCharge(e, remove), e.opts.subsetBudget())
	}
	if ok && !maps.Equal(got, want) {
		t.Fatalf("%s: direct count %v, reference %v", context, decodeChanges(got), decodeChanges(want))
	}
	return len(want)
}

func decodeChanges(m map[itemset.Key]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, n := range m {
		p, _ := k.Decode()
		out[p.String()] = n
	}
	return out
}

// randomBatch draws n updates over w's tuples and annotations.
func randomBatch(rng *rand.Rand, w *randomWorld, n int) []relation.AnnotationUpdate {
	batch := make([]relation.AnnotationUpdate, n)
	for i := range batch {
		batch[i] = relation.AnnotationUpdate{Index: rng.Intn(w.rel.Len()), Annotation: w.annots[rng.Intn(len(w.annots))]}
	}
	return batch
}

// TestPropertyPatternChangesMatchApriori checks the direct pattern-change
// count against the Apriori reference over random attach and detach batches
// at MaxLen 0 to 3. Each batch is probed and undone, then applied for real,
// so the engine's relevance and caches evolve and stay exact.
func TestPropertyPatternChangesMatchApriori(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	patterns := 0
	for world := 0; world < 16; world++ {
		w := newRandomWorld(rng, 40+rng.Intn(60))
		cfg := randomCfg(rng)
		cfg.MaxLen = world % 4
		e := mustEngine(t, w.rel, cfg)
		for round := 0; round < 8; round++ {
			remove := rng.Intn(2) == 1
			batch := randomBatch(rng, w, 1+rng.Intn(25))
			context := fmt.Sprintf("world %d (MaxLen %d) round %d remove=%v", world, cfg.MaxLen, round, remove)
			probeBatch(t, e, batch, remove, func() { patterns += checkPatternChanges(t, e, remove, context) })
			var err error
			if remove {
				_, err = e.RemoveAnnotations(batch)
			} else {
				_, err = e.AddAnnotations(batch)
			}
			if err != nil {
				t.Fatal(err)
			}
			verify(t, e, context)
		}
	}
	t.Logf("%d moved patterns compared", patterns)
	if patterns < 500 {
		t.Errorf("only %d moved patterns over all batches; the property is too weak", patterns)
	}
}

// TestPatternChangesPastSixtyFourAnnotations counts an attach batch and its
// detach that change more than 64 distinct relevant annotations, so neither
// a pattern's key nor the counter may assume they fit a 64-bit set.
func TestPatternChangesPastSixtyFourAnnotations(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	w := &randomWorld{rng: rng, rel: relation.New()}
	dict := w.rel.Dictionary()
	for i := 0; i < 80; i++ {
		w.annots = append(w.annots, relation.MustAnnotation(dict, fmt.Sprintf("Annot_%d", i)))
	}
	for i := 0; i < 300; i++ {
		items := []itemset.Item{itemset.DataItem(1 + rng.Intn(8)), itemset.DataItem(1 + rng.Intn(8))}
		for k := 0; k < 3; k++ {
			items = append(items, w.annots[rng.Intn(len(w.annots))])
		}
		w.rel.Append(relation.NewTuple(items...))
	}
	e := mustEngine(t, w.rel, mining.Config{MinSupport: 0.01, MinConfidence: 0.5})
	var batch []relation.AnnotationUpdate
	for i := 0; i < 240; i++ {
		batch = append(batch, relation.AnnotationUpdate{Index: rng.Intn(w.rel.Len()), Annotation: w.annots[i%len(w.annots)]})
	}
	for _, remove := range []bool{false, true} {
		probeBatch(t, e, batch, remove, func() {
			distinct := 0
			for _, a := range e.changedList {
				if e.relevant.has(a) {
					distinct++
				}
			}
			if distinct <= 64 {
				t.Fatalf("remove=%v: the batch changes %d relevant annotations, want more than 64", remove, distinct)
			}
			if n := checkPatternChanges(t, e, remove, fmt.Sprintf("remove=%v", remove)); n == 0 {
				t.Fatalf("remove=%v: no pattern moved", remove)
			}
		})
		var err error
		if remove {
			_, err = e.RemoveAnnotations(batch)
		} else {
			_, err = e.AddAnnotations(batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		verify(t, e, fmt.Sprintf("remove=%v", remove))
	}
}

// TestPatternChangesBudgetEdge sets SubsetBudget exactly at a batch's charge,
// where both counts must go ahead, and one below it, where both must fall
// back to a re-mine.
func TestPatternChangesBudgetEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	edges := 0
	for world := 0; world < 8; world++ {
		w := newRandomWorld(rng, 40+rng.Intn(40))
		cfg := randomCfg(rng)
		cfg.MaxLen = world % 4
		e := mustEngine(t, w.rel, cfg)
		for round := 0; round < 4; round++ {
			remove := round%2 == 1
			batch := randomBatch(rng, w, 2+rng.Intn(10))
			probeBatch(t, e, batch, remove, func() {
				charge := batchCharge(e, remove)
				if charge < 2 {
					return // a budget of charge−1 would mean the default
				}
				for _, budget := range []int64{charge, charge - 1} {
					e.opts.SubsetBudget = int(budget)
					context := fmt.Sprintf("world %d round %d remove=%v budget %d of charge %d", world, round, remove, budget, charge)
					checkPatternChanges(t, e, remove, context)
					if _, ok := e.annotPatternChanges(remove); ok != (budget >= charge) {
						t.Fatalf("%s: ok = %v", context, ok)
					}
				}
				e.opts.SubsetBudget = 0
				edges++
			})
		}
	}
	if edges < 10 {
		t.Errorf("only %d batches charged at least 2; the test is too weak", edges)
	}
}
