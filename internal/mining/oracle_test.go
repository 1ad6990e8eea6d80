package mining

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"annotadb/internal/apriori"
	"annotadb/internal/itemset"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// oracleRelation builds a small relation whose items were never interned:
// data values 1–6, raw annotations 1–3 and derived labels 1–2, set straight
// from their item ids. A few annotations are detached afterwards, so some
// postings count fewer tuples than they once held.
func oracleRelation(rng *rand.Rand) *relation.Relation {
	rel := relation.New()
	n := 20 + rng.Intn(40)
	for i := 0; i < n; i++ {
		rel.Append(randomTuple(rng))
	}
	for i := 0; i < n/4; i++ {
		err := rel.RemoveAnnotation(rng.Intn(n), itemset.AnnotationItem(1+rng.Intn(3)))
		if err != nil && !errors.Is(err, relation.ErrAnnotationNotPresent) {
			panic(err)
		}
	}
	return rel
}

func randomTuple(rng *rand.Rand) relation.Tuple {
	var items []itemset.Item
	for v := 0; v < 1+rng.Intn(4); v++ {
		items = append(items, itemset.DataItem(1+rng.Intn(6)))
	}
	for a := 1; a <= 3; a++ {
		if rng.Intn(2) == 0 {
			items = append(items, itemset.AnnotationItem(a))
		}
	}
	for g := 1; g <= 2; g++ {
		if rng.Intn(3) == 0 {
			items = append(items, itemset.DerivedItem(g))
		}
	}
	return relation.NewTuple(items...)
}

// scanMine is the transaction-scan oracle for Mine: it counts every subset of
// every projected tuple and keeps what Mine's contract keeps — data and
// annotation patterns at the slack count, and each family's rules filed as
// valid or near-miss.
func scanMine(rel *relation.Relation, cfg Config) *Result {
	n := rel.Len()
	res := &Result{
		Rules:         rules.NewSet(),
		Candidates:    rules.NewSet(),
		DataPatterns:  apriori.NewCatalog(n),
		AnnotPatterns: apriori.NewCatalog(n),
		N:             n,
		MinCount:      apriori.MinCountFor(cfg.MinSupport, n),
	}
	res.SlackCount = min(apriori.MinCountFor(cfg.slack()*cfg.MinSupport, n), res.MinCount)
	counts := make(map[itemset.Key]int)
	rel.Each(func(_ int, t relation.Tuple) bool {
		items := t.Items()
		if cfg.ExcludeDerived {
			items = items.Filter(func(it itemset.Item) bool { return !it.IsDerived() })
		}
		// Every non-empty subset, by bitmask over the tuple's few items.
		for mask := 1; mask < 1<<items.Len(); mask++ {
			var s itemset.Itemset
			for b, it := range items {
				if mask&(1<<b) != 0 {
					s = append(s, it)
				}
			}
			if cfg.MaxLen == 0 || s.Len() <= cfg.MaxLen {
				counts[s.Key()]++
			}
		}
		return true
	})
	for key, c := range counts {
		if c < res.SlackCount {
			continue
		}
		p, err := key.Decode()
		if err != nil {
			panic(err)
		}
		data, annots := p.Split()
		switch {
		case annots.Empty():
			res.DataPatterns.Add(p, c)
		case data.Empty():
			res.AnnotPatterns.Add(p, c)
			for i := 0; cfg.mineAnnot() && p.Len() > 1 && i < p.Len(); i++ {
				lhs := p.WithoutIndex(i)
				file(res, cfg, rules.Rule{LHS: lhs, RHS: p[i], PatternCount: c, LHSCount: counts[lhs.Key()], N: n})
			}
		case annots.Len() == 1 && cfg.mineData():
			file(res, cfg, rules.Rule{LHS: data, RHS: annots[0], PatternCount: c, LHSCount: counts[data.Key()], N: n})
		}
	}
	return res
}

// file is the oracle's own filing rule: every pattern scanMine keeps reaches
// the slack count, so a rule that misses the thresholds is a near-miss.
func file(res *Result, cfg Config, r rules.Rule) {
	if r.Meets(cfg.MinSupport, cfg.MinConfidence) {
		res.Rules.Add(r)
	} else {
		res.Candidates.Add(r)
	}
}

// diffResults names the first difference between two results, or "".
func diffResults(got, want *Result) string {
	switch {
	case got.N != want.N || got.MinCount != want.MinCount || got.SlackCount != want.SlackCount:
		return fmt.Sprintf("thresholds N/min/slack = %d/%d/%d, want %d/%d/%d",
			got.N, got.MinCount, got.SlackCount, want.N, want.MinCount, want.SlackCount)
	case !got.DataPatterns.Equal(want.DataPatterns):
		return fmt.Sprintf("data patterns %v, want %v", got.DataPatterns.Sorted(), want.DataPatterns.Sorted())
	case !got.AnnotPatterns.Equal(want.AnnotPatterns):
		return fmt.Sprintf("annotation patterns %v, want %v", got.AnnotPatterns.Sorted(), want.AnnotPatterns.Sorted())
	}
	if d := diffRules(got.Rules, want.Rules); d != "" {
		return "rules: " + d
	}
	if d := diffRules(got.Candidates, want.Candidates); d != "" {
		return "candidates: " + d
	}
	return ""
}

func diffRules(got, want *rules.Set) string {
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d rules %v, want %d %v", got.Len(), got.Sorted(), want.Len(), want.Sorted())
	}
	for _, w := range want.Sorted() {
		g, ok := got.Get(w.ID())
		if !ok || g.PatternCount != w.PatternCount || g.LHSCount != w.LHSCount || g.N != w.N {
			return fmt.Sprintf("got %v (present %v), want %v", g, ok, w)
		}
	}
	return ""
}

// TestPropertyMineMatchesTransactionScan checks every catalog entry and rule
// of both miners against a scan of the tuples, over relations whose items
// were never interned, with derived labels included and excluded, at MaxLen
// unbounded, 1 and 2, and for each rule-family selection.
func TestPropertyMineMatchesTransactionScan(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	families := []struct{ data, annot bool }{{false, false}, {true, false}, {false, true}}
	for trial := 0; trial < 12; trial++ {
		rel := oracleRelation(rng)
		sup := 0.1 + rng.Float64()*0.3
		conf := 0.4 + rng.Float64()*0.5
		for _, exclude := range []bool{false, true} {
			for _, maxLen := range []int{0, 1, 2} {
				for _, fam := range families {
					for _, alg := range []Algorithm{AlgorithmApriori, AlgorithmFPGrowth} {
						cfg := Config{
							MinSupport: sup, MinConfidence: conf,
							MineDataRules: fam.data, MineAnnotRules: fam.annot,
							ExcludeDerived: exclude, MaxLen: maxLen, Algorithm: alg,
						}
						got, err := Mine(rel, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if d := diffResults(got, scanMine(rel, cfg)); d != "" {
							t.Fatalf("trial %d, %+v: %s", trial, cfg, d)
						}
					}
				}
			}
		}
	}
}

// TestMineReadsOneGeneration runs Mine while a writer appends tuples and
// attaches and detaches annotations. Each result must equal a mine of one
// generation the relation passed through during the call: Mine captures a
// view once and never reads the live relation again.
func TestMineReadsOneGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rel := oracleRelation(rng)

	var mu sync.Mutex
	gens := map[uint64]*relation.View{rel.Version(): rel.View()}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		wrng := rand.New(rand.NewSource(36))
		for i := 0; i < 5000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch idx, a := wrng.Intn(rel.Len()), itemset.AnnotationItem(1+wrng.Intn(3)); wrng.Intn(3) {
			case 0:
				if rel.Len() < 300 {
					rel.Append(randomTuple(wrng))
				}
			case 1:
				if err = rel.AddAnnotation(idx, a); errors.Is(err, relation.ErrDuplicateAnnotation) {
					err = nil
				}
			default:
				if err = rel.RemoveAnnotation(idx, a); errors.Is(err, relation.ErrAnnotationNotPresent) {
					err = nil
				}
			}
			if err != nil {
				t.Error(err)
				return
			}
			v := rel.View()
			mu.Lock()
			gens[v.Version()] = v
			mu.Unlock()
		}
	}()

	type run struct {
		cfg           Config
		before, after uint64
		res           *Result
	}
	var runs []run
	for len(runs) < 60 {
		cfg := Config{MinSupport: 0.2, MinConfidence: 0.6, Algorithm: Algorithm(len(runs) % 2)}
		before := rel.Version()
		res, err := Mine(rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{cfg, before, rel.Version(), res})
	}
	close(stop)
	<-done

	overlapped := 0
	for i, r := range runs {
		if r.after > r.before {
			overlapped++
		}
		matched := false
		for ver := r.before; ver <= r.after && !matched; ver++ {
			if v, ok := gens[ver]; ok {
				matched = diffResults(r.res, mine(v, r.cfg)) == ""
			}
		}
		if !matched {
			t.Fatalf("run %d (%v, versions %d–%d): result matches no generation it could have read", i, r.cfg.Algorithm, r.before, r.after)
		}
	}
	t.Logf("%d mines (%d overlapped a write) against %d generations", len(runs), overlapped, len(gens))
}
