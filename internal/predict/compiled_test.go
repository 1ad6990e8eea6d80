package predict

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// sortedEvaluator is the evaluator Compiled replaced, kept verbatim as the
// oracle: Compile sorted every eligible rule best first, and the first rule
// to fire for a (tuple, annotation) pair won.
type sortedEvaluator struct {
	opts     Options
	eligible []rules.Rule
}

func compileSorted(v *rules.View, opts Options) *sortedEvaluator {
	var eligible []rules.Rule
	v.EachRule(func(r rules.Rule) bool {
		if opts.ruleAllowed(r) {
			eligible = append(eligible, r)
		}
		return true
	})
	// Deterministic evaluation order keeps tie-breaking stable: best rule
	// first, identity as the final tie-break.
	sort.Slice(eligible, func(i, j int) bool {
		if betterRule(eligible[i], eligible[j]) {
			return true
		}
		if betterRule(eligible[j], eligible[i]) {
			return false
		}
		if c := eligible[i].LHS.Compare(eligible[j].LHS); c != 0 {
			return c < 0
		}
		return eligible[i].RHS < eligible[j].RHS
	})
	return &sortedEvaluator{opts: opts, eligible: eligible}
}

func (c *sortedEvaluator) ForTupleAt(tu relation.Tuple, idx int) []Recommendation {
	bestByAnnot := make(map[itemset.Item]rules.Rule)
	for _, r := range c.eligible {
		if tu.Annots.Contains(r.RHS) || !tu.Contains(r.LHS) {
			continue
		}
		if cur, ok := bestByAnnot[r.RHS]; ok && !betterRule(r, cur) {
			continue
		}
		bestByAnnot[r.RHS] = r
	}
	out := make([]Recommendation, 0, len(bestByAnnot))
	for a, r := range bestByAnnot {
		out = append(out, Recommendation{TupleIndex: idx, Annotation: a, Rule: r})
	}
	sortRecommendations(out)
	if c.opts.Limit > 0 && len(out) > c.opts.Limit {
		out = out[:c.opts.Limit]
	}
	return out
}

func (c *sortedEvaluator) ScanRange(src relation.Source, start, end int) []Recommendation {
	if start < 0 {
		start = 0
	}
	if n := src.Len(); end > n {
		end = n
	}
	if start >= end {
		return nil
	}
	type key struct {
		idx int
		a   itemset.Item
	}
	best := make(map[key]rules.Rule)
	src.EachFrom(start, func(i int, tu relation.Tuple) bool {
		if i >= end {
			return false
		}
		for _, r := range c.eligible {
			if tu.Annots.Contains(r.RHS) {
				continue
			}
			if !tu.Contains(r.LHS) {
				continue
			}
			k := key{i, r.RHS}
			if cur, ok := best[k]; ok && !betterRule(r, cur) {
				continue
			}
			best[k] = r
		}
		return true
	})
	out := make([]Recommendation, 0, len(best))
	for k, r := range best {
		out = append(out, Recommendation{TupleIndex: k.idx, Annotation: k.a, Rule: r})
	}
	sortRecommendations(out)
	if c.opts.Limit > 0 && len(out) > c.opts.Limit {
		out = out[:c.opts.Limit]
	}
	return out
}

// betterRule orders supporting rules: higher confidence wins, then higher
// support, then the shorter (more general) LHS.
func betterRule(a, b rules.Rule) bool {
	if a.Confidence() != b.Confidence() {
		return a.Confidence() > b.Confidence()
	}
	if a.Support() != b.Support() {
		return a.Support() > b.Support()
	}
	return a.LHS.Len() < b.LHS.Len()
}

func sortRecommendations(recs []Recommendation) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].TupleIndex != recs[j].TupleIndex {
			return recs[i].TupleIndex < recs[j].TupleIndex
		}
		return recs[i].Annotation < recs[j].Annotation
	})
}

// randomWorld builds a relation of random tuples and a rule set over its
// items. Counts come from small palettes, so rules often tie on confidence
// and support, and every rule gets a twin with the same RHS, counts and LHS
// length over other items of its kind, so only the LHS order can choose
// between the two.
func randomWorld(rng *rand.Rand) (*relation.Relation, *rules.Set) {
	rel := relation.New()
	dict := rel.Dictionary()
	var data, annots []itemset.Item
	for i := 0; i < 6; i++ {
		it, _ := dict.InternData(fmt.Sprintf("v%d", i))
		data = append(data, it)
	}
	for i := 0; i < 4; i++ {
		it, _ := dict.InternAnnotation(fmt.Sprintf("Annot_%d", i))
		annots = append(annots, it)
	}
	n := 10 + rng.Intn(30)
	for i := 0; i < n; i++ {
		rel.Append(randomTuple(rng, data, annots))
	}
	set := rules.NewSet()
	for i, m := 0, 5+rng.Intn(20); i < m; i++ {
		rhs := annots[rng.Intn(len(annots))]
		var from []itemset.Item
		switch rng.Intn(5) {
		case 0, 1:
			from = data
		case 2, 3:
			from = others(annots, rhs)
		default: // mixed, which only an explicit kind admits
			from = append(others(annots, rhs), data...)
		}
		r := rules.Rule{
			LHS:          randomLHS(rng, from, 1+rng.Intn(3)),
			RHS:          rhs,
			PatternCount: []int{2, 4}[rng.Intn(2)],
			LHSCount:     []int{4, 8}[rng.Intn(2)],
			N:            n,
		}
		set.Add(r)
		r.LHS = randomLHS(rng, from, r.LHS.Len())
		set.Add(r)
	}
	return rel, set
}

func randomTuple(rng *rand.Rand, data, annots []itemset.Item) relation.Tuple {
	var items []itemset.Item
	for _, it := range data {
		if rng.Intn(2) == 0 {
			items = append(items, it)
		}
	}
	for _, it := range annots {
		if rng.Intn(3) == 0 {
			items = append(items, it)
		}
	}
	return relation.NewTuple(items...)
}

func randomLHS(rng *rand.Rand, from []itemset.Item, k int) itemset.Itemset {
	var lhs []itemset.Item
	for _, i := range rng.Perm(len(from))[:k] {
		lhs = append(lhs, from[i])
	}
	return itemset.New(lhs...)
}

func others(items []itemset.Item, drop itemset.Item) []itemset.Item {
	var out []itemset.Item
	for _, it := range items {
		if it != drop {
			out = append(out, it)
		}
	}
	return out
}

// TestPropertyCompiledMatchesSortedEvaluator: ranking rules by outranks
// without sorting them gives exactly the answers of the sorted, first match
// wins evaluator, for whole, clamped, empty and inverted scans and for
// single tuples, under the default options, a limit and two kind filters,
// one of which admits mixed LHSs.
func TestPropertyCompiledMatchesSortedEvaluator(t *testing.T) {
	optionCases := []Options{
		{},
		{Limit: 3},
		{Kinds: []rules.Kind{rules.AnnotationToAnnotation}},
		{Kinds: []rules.Kind{rules.AnnotationToAnnotation, rules.MixedKind}},
	}
	same := func(got, want []Recommendation) bool {
		return len(got) == 0 && len(want) == 0 || reflect.DeepEqual(got, want)
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel, set := randomWorld(rng)
		view := set.Freeze()
		n := rel.Len()
		ranges := [][2]int{{0, n}, {-3, n + 5}, {rng.Intn(n), rng.Intn(n + 1)}, {n / 2, n / 2}, {n - 1, 1}}
		for _, opts := range optionCases {
			got, want := Compile(view, opts), compileSorted(view, opts)
			for _, r := range ranges {
				if g, w := got.ScanRange(rel, r[0], r[1]), want.ScanRange(rel, r[0], r[1]); !same(g, w) {
					t.Fatalf("seed %d, %+v: ScanRange(%d, %d) =\n%v\nwant\n%v", seed, opts, r[0], r[1], g, w)
				}
			}
			for i := 0; i < n; i++ {
				tu, _ := rel.Tuple(i)
				if g, w := got.ForTupleAt(tu, i), want.ForTupleAt(tu, i); !same(g, w) {
					t.Fatalf("seed %d, %+v: ForTupleAt(%d) =\n%v\nwant\n%v", seed, opts, i, g, w)
				}
			}
		}
	}
}

// TestCompileRatioFilters: with non-zero MinConfidence and MinSupport,
// Compile keeps exactly the rules whose own Confidence and Support reach
// both thresholds, in the view's order, alone and combined with a kind
// filter.
func TestCompileRatioFilters(t *testing.T) {
	optionCases := []Options{
		{MinConfidence: 0.5},
		{MinSupport: 0.15},
		{MinConfidence: 0.5, MinSupport: 0.1},
		{MinConfidence: 0.3, Kinds: []rules.Kind{rules.AnnotationToAnnotation}},
	}
	kept, filtered := 0, 0
	for seed := int64(1); seed <= 50; seed++ {
		_, set := randomWorld(rand.New(rand.NewSource(seed)))
		view := set.Freeze()
		for _, opts := range optionCases {
			var want []rules.Rule
			for _, r := range view.Sorted() {
				if opts.kindAllowed(r.Kind()) && r.Confidence() >= opts.MinConfidence && r.Support() >= opts.MinSupport {
					want = append(want, r)
				}
			}
			got := Compile(view, opts).eligible
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %+v: Compile kept\n%v\nwant\n%v", seed, opts, got, want)
			}
			kept += len(want)
			filtered += view.Len() - len(want)
		}
	}
	if kept == 0 || filtered == 0 {
		t.Fatalf("the option cases kept %d rules and filtered %d; both must happen to test the thresholds", kept, filtered)
	}
}

// TestCompiledConcurrentReaders: one Compiled serves every reader goroutine
// of a published snapshot, so concurrent evaluations must agree with a
// single-threaded one (and, under -race, share no written state).
func TestCompiledConcurrentReaders(t *testing.T) {
	rel, set := randomWorld(rand.New(rand.NewSource(1)))
	c := Compile(set.Freeze(), Options{})
	want := c.ScanRange(rel, 0, rel.Len())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := c.ScanRange(rel, 0, rel.Len()); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent ScanRange = %v, want %v", got, want)
			}
			for i := 0; i < rel.Len(); i++ {
				tu, _ := rel.Tuple(i)
				c.ForTupleAt(tu, i)
			}
		}()
	}
	wg.Wait()
}
