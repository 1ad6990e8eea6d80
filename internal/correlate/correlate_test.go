package correlate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"annotadb/internal/relation"
)

func TestParseQuery(t *testing.T) {
	cases := []struct {
		name               string
		anchor, k, minLift string
		want               Query
		wantErr            bool
	}{
		{name: "defaults", anchor: "cpu:high", want: Query{Anchor: "cpu:high", K: DefaultK, MinLift: DefaultMinLift}},
		{name: "explicit", anchor: "a", k: "3", minLift: "1.5", want: Query{Anchor: "a", K: 3, MinLift: 1.5}},
		{name: "zero lift disables the floor", anchor: "a", minLift: "0", want: Query{Anchor: "a", K: DefaultK, MinLift: 0}},
		{name: "max k", anchor: "a", k: "1000", want: Query{Anchor: "a", K: MaxK, MinLift: DefaultMinLift}},
		{name: "missing anchor", wantErr: true},
		{name: "k zero", anchor: "a", k: "0", wantErr: true},
		{name: "k negative", anchor: "a", k: "-1", wantErr: true},
		{name: "k over max", anchor: "a", k: "1001", wantErr: true},
		{name: "k garbage", anchor: "a", k: "ten", wantErr: true},
		{name: "min_lift negative", anchor: "a", minLift: "-0.5", wantErr: true},
		{name: "min_lift nan", anchor: "a", minLift: "NaN", wantErr: true},
		{name: "min_lift inf", anchor: "a", minLift: "Inf", wantErr: true},
		{name: "min_lift garbage", anchor: "a", minLift: "much", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseQuery(tc.anchor, tc.k, tc.minLift)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParseQuery(%q, %q, %q) = %+v, want error", tc.anchor, tc.k, tc.minLift, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseQuery(%q, %q, %q): %v", tc.anchor, tc.k, tc.minLift, err)
			}
			if got != tc.want {
				t.Fatalf("ParseQuery(%q, %q, %q) = %+v, want %+v", tc.anchor, tc.k, tc.minLift, got, tc.want)
			}
		})
	}
}

// randomRelation builds a relation with skewed annotation placement: a pool
// of families × levels, each annotation attached to a random subset of
// tuples, plus repeated data values so data anchors have real postings.
func randomRelation(rng *rand.Rand, n int) *relation.Relation {
	rel := relation.New()
	dict := rel.Dictionary()
	annots := []string{
		"cpu:high", "cpu:low", "mem:high", "mem:low",
		"io:slow", "io:fast", "net:sat", "disk:full", "oom:kill", "plain",
	}
	for i := 0; i < n; i++ {
		data := []string{fmt.Sprintf("host=h%d", rng.Intn(8)), fmt.Sprintf("img=i%d", rng.Intn(4))}
		var attach []string
		for _, a := range annots {
			if rng.Float64() < 0.25 {
				attach = append(attach, a)
			}
		}
		rel.Append(relation.MustTuple(dict, data, attach))
	}
	return rel
}

// TestTopKMatchesBruteForce is the equivalence property: the bitmap answer
// equals the O(N·M) no-derived-structure recomputation, for data and
// annotation anchors across random relations, ks, and lift floors.
func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		rel := randomRelation(rng, 50+rng.Intn(200))
		view := rel.View()
		idx := NewIndex(view)
		anchors := []string{"cpu:high", "mem:low", "oom:kill", "host=h1", "img=i2", "plain"}
		for _, anchor := range anchors {
			q := Query{Anchor: anchor, K: 1 + rng.Intn(12), MinLift: []float64{0, 1, 1.2}[rng.Intn(3)]}
			got, gotErr := idx.TopK(q)
			want, wantErr := BruteForce(view, q)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("round %d anchor %q: TopK err %v, BruteForce err %v", round, anchor, gotErr, wantErr)
			}
			if gotErr != nil {
				if !errors.Is(gotErr, ErrUnknownAnchor) {
					t.Fatalf("round %d anchor %q: unexpected error %v", round, anchor, gotErr)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d anchor %q k=%d minLift=%v:\n index: %+v\n brute: %+v",
					round, anchor, q.K, q.MinLift, got, want)
			}
		}
	}
}

func TestTopKUnknownAnchor(t *testing.T) {
	rel := relation.New()
	dict := rel.Dictionary()
	rel.Append(relation.MustTuple(dict, []string{"v1"}, []string{"a:x"}))
	idx := NewIndex(rel.View())
	if _, err := idx.TopK(Query{Anchor: "never-seen", K: 5, MinLift: 1}); !errors.Is(err, ErrUnknownAnchor) {
		t.Fatalf("unknown token: got %v, want ErrUnknownAnchor", err)
	}
	if _, err := BruteForce(rel.View(), Query{Anchor: "never-seen", K: 5, MinLift: 1}); !errors.Is(err, ErrUnknownAnchor) {
		t.Fatalf("brute force unknown token: got %v, want ErrUnknownAnchor", err)
	}
}

// plantedRelation builds the significance golden fixture: 500 tuples where
// sched:throttle genuinely follows cpu:high (co 90 of 100) while net:sat has
// the exact same support (100) but is spread independently, so its overlap
// with the anchor (20) is precisely the product of the margins.
func plantedRelation() *relation.Relation {
	rel := relation.New()
	dict := rel.Dictionary()
	for i := 0; i < 500; i++ {
		src := "src=b"
		if i < 100 {
			src = "src=a"
		}
		var attach []string
		if i < 100 {
			attach = append(attach, "cpu:high")
		}
		if i < 90 || (i >= 100 && i < 110) {
			attach = append(attach, "sched:throttle")
		}
		if i%5 == 0 {
			attach = append(attach, "net:sat")
		}
		rel.Append(relation.MustTuple(dict, []string{src, fmt.Sprintf("row=%d", i)}, attach))
	}
	return rel
}

// TestSignificanceGolden checks the planted correlation beats equal-support
// noise: both candidates have support 100, but only the dependent one passes
// the chi-square filter — the reason the filter exists.
func TestSignificanceGolden(t *testing.T) {
	idx := NewIndex(plantedRelation().View())
	for _, anchor := range []string{"cpu:high", "src=a"} {
		ans, err := idx.TopK(Query{Anchor: anchor, K: 10, MinLift: 1})
		if err != nil {
			t.Fatalf("TopK(%q): %v", anchor, err)
		}
		if ans.AnchorCount != 100 || ans.N != 500 {
			t.Fatalf("TopK(%q): anchor count %d / n %d, want 100 / 500", anchor, ans.AnchorCount, ans.N)
		}
		var planted *Result
		for i := range ans.Results {
			switch ans.Results[i].Token {
			case "sched:throttle":
				planted = &ans.Results[i]
			case "net:sat":
				t.Fatalf("TopK(%q): independent equal-support noise survived the significance filter: %+v",
					anchor, ans.Results[i])
			}
		}
		if planted == nil {
			t.Fatalf("TopK(%q): planted correlation missing from %+v", anchor, ans.Results)
		}
		if planted.Count != 90 || planted.Frequency != 100 {
			t.Fatalf("TopK(%q): planted counts %d/%d, want 90/100", anchor, planted.Count, planted.Frequency)
		}
		if math.Abs(planted.Confidence-0.9) > 1e-12 || math.Abs(planted.Lift-4.5) > 1e-12 {
			t.Fatalf("TopK(%q): planted confidence %v lift %v, want 0.9 / 4.5", anchor, planted.Confidence, planted.Lift)
		}
		if planted.ChiSquare < ChiSquareCutoff || planted.PValue > 0.05 {
			t.Fatalf("TopK(%q): planted chi2 %v p %v should clear the cutoff", anchor, planted.ChiSquare, planted.PValue)
		}
		if planted.Family != "sched" {
			t.Fatalf("TopK(%q): planted family %q, want sched", anchor, planted.Family)
		}
	}
	// The noise IS reachable with the filters off: prove the filter, not the
	// candidate enumeration, is what removed it.
	ans, err := idx.TopK(Query{Anchor: "cpu:high", K: 100, MinLift: 0})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ans.Results {
		found = found || r.Token == "net:sat"
	}
	if found {
		// net:sat has chi2 == 0 < cutoff, so even minLift 0 keeps it out;
		// it must only appear through BruteForce's pre-filter counting.
		t.Fatalf("net:sat passed the significance filter: %+v", ans.Results)
	}
}

// shardedFixture splits plantedRelation by annotation family across two
// "shards" that share tuple positions: every shard holds every tuple's data
// values, each family's annotations live on exactly one shard — the sharded
// store's contract TopKMerged leans on.
func shardedFixture(t *testing.T) (merged *relation.View, shards []*Index) {
	t.Helper()
	full := plantedRelation()
	famShard := map[string]int{"cpu": 0, "net": 0, "sched": 1}
	rels := []*relation.Relation{relation.New(), relation.New()}
	full.View().Each(func(i int, tu relation.Tuple) bool {
		dict := full.Dictionary()
		var data []string
		for _, it := range tu.Data {
			data = append(data, dict.Token(it))
		}
		annots := make([][]string, len(rels))
		for _, a := range tu.Annots {
			token := dict.Token(a)
			s := famShard[relation.FamilyOf(token)]
			annots[s] = append(annots[s], token)
		}
		for s, rel := range rels {
			rel.Append(relation.MustTuple(rel.Dictionary(), data, annots[s]))
		}
		return true
	})
	shards = []*Index{NewIndex(rels[0].View()), NewIndex(rels[1].View())}
	return full.View(), shards
}

// TestTopKMergedMatchesUnsharded: the position-aligned shard merge must be
// indistinguishable from querying one unsharded relation holding the union,
// for anchors living on either shard and for data anchors living on both.
func TestTopKMergedMatchesUnsharded(t *testing.T) {
	mergedView, shards := shardedFixture(t)
	unsharded := NewIndex(mergedView)
	for _, anchor := range []string{"cpu:high", "sched:throttle", "net:sat", "src=a"} {
		for _, minLift := range []float64{0, 1} {
			q := Query{Anchor: anchor, K: 20, MinLift: minLift}
			want, wantErr := unsharded.TopK(q)
			got, gotErr := TopKMerged(shards, q)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("anchor %q: merged err %v, unsharded err %v", anchor, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("anchor %q minLift %v:\n merged:    %+v\n unsharded: %+v", anchor, minLift, got, want)
			}
		}
	}
	if _, err := TopKMerged(shards, Query{Anchor: "nope", K: 5, MinLift: 1}); !errors.Is(err, ErrUnknownAnchor) {
		t.Fatalf("merged unknown anchor: got %v, want ErrUnknownAnchor", err)
	}
	if _, err := TopKMerged(nil, Query{Anchor: "cpu:high", K: 5, MinLift: 1}); !errors.Is(err, ErrUnknownAnchor) {
		t.Fatalf("merged with no shards: got %v, want ErrUnknownAnchor", err)
	}
}

// TestTopKMergedClampsRaggedShards: shards whose tuple counts diverge (one
// shard's writer ahead of the other) must be merged at the shortest prefix,
// matching an unsharded relation truncated to that length.
func TestTopKMergedClampsRaggedShards(t *testing.T) {
	_, shards := shardedFixture(t)
	// grow copies a shard and appends rows up to position to, each with
	// data value src=a and the given annotations.
	grow := func(view *relation.View, to int, annots ...string) *Index {
		rel := relation.New()
		dict := view.Dictionary()
		view.Each(func(_ int, tu relation.Tuple) bool {
			rel.Append(relation.MustTuple(rel.Dictionary(), dict.Tokens(tu.Data), dict.Tokens(tu.Annots)))
			return true
		})
		for i := view.Len(); i < to; i++ {
			rel.Append(relation.MustTuple(rel.Dictionary(), []string{"src=a", fmt.Sprintf("extra=%d", i)}, annots))
		}
		return NewIndex(rel.View())
	}
	// Extend shard 0 by 40 tuples the other shard has not seen yet.
	ragged := []*Index{grow(shards[0].View(), 540, "cpu:high", "net:sat"), shards[1]}
	q := Query{Anchor: "cpu:high", K: 20, MinLift: 0}
	got, err := TopKMerged(ragged, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TopKMerged(shards, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 500 || got.AnchorCount != want.AnchorCount {
		t.Fatalf("ragged merge: n %d anchor %d, want n 500 anchor %d", got.N, got.AnchorCount, want.AnchorCount)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ragged merge diverged from aligned merge:\n ragged:  %+v\n aligned: %+v", got, want)
	}

	// A data anchor lives on both shards and resolves on the longer one, so
	// its own bits past the edge must not count either; and an edge on a
	// word boundary (both shards grown to 512 tuples, shard 0 by 40 more)
	// must clamp as exactly as one inside a word.
	aligned512 := []*Index{grow(shards[0].View(), 512, "cpu:high"), grow(shards[1].View(), 512, "sched:throttle")}
	edges := []struct {
		name            string
		ragged, aligned []*Index
		n               int
	}{
		{"mid-word edge", ragged, shards, 500},
		{"word-boundary edge", []*Index{grow(aligned512[0].View(), 552, "cpu:high", "net:sat"), aligned512[1]}, aligned512, 512},
	}
	for _, edge := range edges {
		for _, anchor := range []string{"cpu:high", "src=a"} {
			q := Query{Anchor: anchor, K: 20, MinLift: 0}
			got, err := TopKMerged(edge.ragged, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := TopKMerged(edge.aligned, q)
			if err != nil {
				t.Fatal(err)
			}
			if got.N != edge.n || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, anchor %q: ragged merge diverged from aligned merge at n %d:\n ragged:  %+v\n aligned: %+v",
					edge.name, anchor, edge.n, got, want)
			}
		}
	}
}

// historyAnnots is the annotation pool of the random histories below: raw
// annotations across several families, so removals and re-adds hit them all.
var historyAnnots = []string{
	"cpu:high", "cpu:low", "mem:high", "mem:low",
	"io:slow", "io:fast", "net:sat", "disk:full", "oom:kill", "plain",
}

// historyStep mutates rel by one random batch: a tuple append (repeating
// data values, so existing postings grow, plus now and then a value never
// seen, so the data spine grows), an annotation attach batch, or a removal
// batch.
func historyStep(t *testing.T, rng *rand.Rand, rel *relation.Relation, step int) {
	t.Helper()
	dict := rel.Dictionary()
	switch op := rng.Intn(3); op {
	case 0:
		for k := 1 + rng.Intn(4); k > 0; k-- {
			data := []string{fmt.Sprintf("host=h%d", rng.Intn(8)), fmt.Sprintf("img=i%d", rng.Intn(4))}
			if rng.Intn(5) == 0 {
				data = append(data, fmt.Sprintf("ctr=c%d", step))
			}
			var attach []string
			for _, a := range historyAnnots {
				if rng.Float64() < 0.25 {
					attach = append(attach, a)
				}
			}
			rel.Append(relation.MustTuple(dict, data, attach))
		}
	case 1, 2:
		batch := make([]relation.AnnotationUpdate, 1+rng.Intn(6))
		for i := range batch {
			a := historyAnnots[rng.Intn(len(historyAnnots))]
			batch[i] = relation.AnnotationUpdate{Index: rng.Intn(rel.Len()), Annotation: relation.MustAnnotation(dict, a)}
		}
		apply := rel.ApplyUpdates
		if op == 2 {
			apply = rel.ApplyRemovals
		}
		if _, _, err := apply(batch); err != nil {
			t.Fatalf("step %d: annotation batch (op %d): %v", step, op, err)
		}
	}
}

// checkAgainstBruteForce asserts idx answers every probe anchor exactly as
// the no-derived-structure recomputation over idx's own view does.
func checkAgainstBruteForce(t *testing.T, label string, idx *Index) {
	t.Helper()
	for _, anchor := range []string{"cpu:high", "mem:low", "plain", "host=h1", "img=i2", "ctr=c7", "never-seen"} {
		q := Query{Anchor: anchor, K: 20, MinLift: 0}
		got, gotErr := idx.TopK(q)
		want, wantErr := BruteForce(idx.View(), q)
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("%s anchor %q: TopK err %v, BruteForce err %v", label, anchor, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s anchor %q:\n index: %+v\n brute: %+v", label, anchor, got, want)
		}
	}
}

// TestTopKMatchesBruteForceOverRandomHistories is the retained-generation
// oracle: along a random history of tuple appends (new data values among
// them), annotation adds and removals, every generation answers as
// BruteForce over its own view does — when it is captured, and again after
// later writes set bits past its length and copied the bitmaps it shares.
func TestTopKMatchesBruteForceOverRandomHistories(t *testing.T) {
	const generations = 240
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		rel := randomRelation(rng, 40)
		retained := []*Index{NewIndex(rel.View())}
		for step := 1; step <= generations; step++ {
			historyStep(t, rng, rel, step)
			idx := NewIndex(rel.View())
			checkAgainstBruteForce(t, fmt.Sprintf("seed %d step %d", seed, step), idx)
			retained = append(retained, idx)
			old := rng.Intn(len(retained))
			checkAgainstBruteForce(t, fmt.Sprintf("seed %d step %d, retained generation %d", seed, step, old), retained[old])
		}
		for g, old := range retained {
			checkAgainstBruteForce(t, fmt.Sprintf("seed %d, generation %d at the end", seed, g), old)
		}
	}
}

// rebuild returns an index over a relation built from scratch out of view's
// tuples in one Append, so none of its postings were maintained write by
// write.
func rebuild(view *relation.View) *Index {
	rel := relation.NewWithDictionary(view.Dictionary())
	batch := make([]relation.Tuple, 0, view.Len())
	view.Each(func(_ int, t relation.Tuple) bool {
		batch = append(batch, t.Clone())
		return true
	})
	rel.Append(batch...)
	return NewIndex(rel.View())
}

// checkAgainstRebuild asserts idx answers every probe anchor exactly as an
// index over a from-scratch rebuild of idx's view does, and as BruteForce.
func checkAgainstRebuild(t *testing.T, label string, idx *Index) {
	t.Helper()
	fresh := rebuild(idx.View())
	for _, anchor := range []string{"cpu:high", "mem:low", "plain", "host=h0", "host=h1", "img=i0", "img=i2", "ctr=c7", "fork:only", "never-seen"} {
		q := Query{Anchor: anchor, K: 20, MinLift: 0}
		got, gotErr := idx.TopK(q)
		want, wantErr := fresh.TopK(q)
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("%s anchor %q: TopK err %v, rebuilt err %v", label, anchor, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s anchor %q:\n index:   %+v\n rebuilt: %+v", label, anchor, got, want)
		}
	}
	checkAgainstBruteForce(t, label, idx)
}

// TestExtendMatchesRebuildOverRandomHistories: the relation extends its
// postings write by write (tuple appends setting data and annotation bits in
// place, attaches and removals copying one bitmap), and every generation
// answers exactly as one built from scratch over the same tuples does — when
// it is captured, and again at the end, after later writes extended the
// bitmaps it shares.
func TestExtendMatchesRebuildOverRandomHistories(t *testing.T) {
	const generations = 120
	for _, seed := range []int64{4, 5} {
		rng := rand.New(rand.NewSource(seed))
		rel := randomRelation(rng, 40)
		retained := []*Index{NewIndex(rel.View())}
		for step := 1; step <= generations; step++ {
			historyStep(t, rng, rel, step)
			idx := NewIndex(rel.View())
			checkAgainstRebuild(t, fmt.Sprintf("seed %d step %d", seed, step), idx)
			retained = append(retained, idx)
		}
		for g, old := range retained {
			if g%8 == 0 {
				checkAgainstRebuild(t, fmt.Sprintf("seed %d, generation %d at the end", seed, g), old)
			}
		}
	}
}

// TestExtendForkDoesNotWriteSharedArrays: branches diverging from one
// generation never see each other's writes. Two clones append different
// rows; the original takes an annotation-only generation (sharing the base
// view's data bitmaps) and then appends rows of its own, written in place
// past the base view's length. Every branch equals a rebuild of its own view,
// and the forked-from generation answers exactly as before the forks.
func TestExtendForkDoesNotWriteSharedArrays(t *testing.T) {
	rel := randomRelation(rand.New(rand.NewSource(11)), 300)
	base := NewIndex(rel.View())
	probes := []string{"host=h0", "host=h7", "img=i0", "cpu:high"}
	before := make(map[string]Answer, len(probes))
	for _, anchor := range probes {
		res, err := base.TopK(Query{Anchor: anchor, K: 20, MinLift: 0})
		if err != nil {
			t.Fatal(err)
		}
		before[anchor] = res
	}
	// Every branch ends with four host=h0 rows, after a different number of
	// other rows, so the branches set different bits of host=h0's bitmap.
	appendRows := func(r *relation.Relation, lead int) *relation.View {
		for i := 0; i < lead+4; i++ {
			host := "host=h0"
			if i < lead {
				host = "host=h7"
			}
			r.Append(relation.MustTuple(r.Dictionary(), []string{host, "img=i0"}, []string{"cpu:high"}))
		}
		return r.View()
	}
	relA, relB := rel.Clone(), rel.Clone()
	if err := rel.AddAnnotation(0, relation.MustAnnotation(rel.Dictionary(), "fork:only")); err != nil {
		t.Fatal(err)
	}
	sameLen := NewIndex(rel.View())
	branches := map[string]*Index{
		"first":                 NewIndex(appendRows(relA, 0)),
		"second":                NewIndex(appendRows(relB, 2)),
		"through-shared-arrays": NewIndex(appendRows(rel, 4)),
		"annotation-only":       sameLen,
		"forked-from":           base,
	}
	for name, idx := range branches {
		checkAgainstRebuild(t, "branch "+name, idx)
	}
	for _, anchor := range probes {
		res, err := base.TopK(Query{Anchor: anchor, K: 20, MinLift: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, before[anchor]) {
			t.Fatalf("anchor %q: the forked-from generation's answer changed:\n now:    %+v\n before: %+v", anchor, res, before[anchor])
		}
	}
}

// TestWarmQueriesDoNotAllocatePerPosting bounds a warm query's allocations
// by a small constant: the result slice and little else — no per-candidate
// counters, and nothing that scales with the anchor's ~1 250 postings.
func TestWarmQueriesDoNotAllocatePerPosting(t *testing.T) {
	rel := randomRelation(rand.New(rand.NewSource(42)), 5000)
	idx := NewIndex(rel.View())
	_, shards := shardedFixture(t)
	single := Query{Anchor: "cpu:high", K: DefaultK, MinLift: DefaultMinLift}
	cases := []struct {
		name  string
		bound float64
		run   func() error
	}{
		{"TopK", 3, func() error { _, err := idx.TopK(single); return err }},
		{"TopKMerged", 4, func() error { _, err := TopKMerged(shards, single); return err }},
	}
	for _, tc := range cases {
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := tc.run(); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		})
		if allocs > tc.bound {
			t.Errorf("%s: %.1f allocations per warm query, want at most %.0f", tc.name, allocs, tc.bound)
		}
	}
}

func FuzzParseCorrelateQuery(f *testing.F) {
	f.Add("cpu:high", "10", "1.0")
	f.Add("", "", "")
	f.Add("a", "-3", "NaN")
	f.Add("img=i0", "1001", "-1")
	f.Add("x", "999999999999999999999", "1e309")
	f.Fuzz(func(t *testing.T, anchor, k, minLift string) {
		q, err := ParseQuery(anchor, k, minLift)
		if err != nil {
			return
		}
		if q.Anchor != anchor || q.Anchor == "" {
			t.Fatalf("accepted query lost its anchor: %+v from (%q, %q, %q)", q, anchor, k, minLift)
		}
		if q.K < 1 || q.K > MaxK {
			t.Fatalf("accepted k %d outside [1, %d]", q.K, MaxK)
		}
		if math.IsNaN(q.MinLift) || math.IsInf(q.MinLift, 0) || q.MinLift < 0 {
			t.Fatalf("accepted min_lift %v is not a finite non-negative number", q.MinLift)
		}
	})
}

// BenchmarkCorrelateTopK is an unsharded /correlate over 5 000 tuples: a
// dense annotation anchor on ten annotations, and the two cases where walking
// the anchor's positions would be cheaper than ANDing every candidate's
// bitmap — a data anchor on eight late tuples, whose bitmap is long and
// almost all zero words, and a 256-annotation dictionary.
func BenchmarkCorrelateTopK(b *testing.B) {
	rare := randomRelation(rand.New(rand.NewSource(42)), 5000)
	for i := 0; i < 8; i++ {
		rare.Append(relation.MustTuple(rare.Dictionary(), []string{"host=rare"}, historyAnnots[i:i+3]))
		for k := 0; k < 60; k++ {
			rare.Append(relation.MustTuple(rare.Dictionary(), []string{"host=h0"}, nil))
		}
	}
	rng := rand.New(rand.NewSource(42))
	wide := relation.New()
	for i := 0; i < 5000; i++ {
		attach := []string{fmt.Sprintf("f%d:x", rng.Intn(255)), fmt.Sprintf("f%d:x", rng.Intn(255))}
		if rng.Intn(4) == 0 {
			attach = append(attach, "cpu:high")
		}
		wide.Append(relation.MustTuple(wide.Dictionary(), []string{fmt.Sprintf("host=h%d", rng.Intn(8))}, attach))
	}
	cases := []struct {
		name, anchor string
		rel          *relation.Relation
	}{
		{"cpu:high", "cpu:high", randomRelation(rand.New(rand.NewSource(42)), 5000)},
		{"rare-late-data-anchor", "host=rare", rare},
		{"256-annotations", "cpu:high", wide},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			idx := NewIndex(tc.rel.View())
			q := Query{Anchor: tc.anchor, K: DefaultK, MinLift: DefaultMinLift}
			if _, err := idx.TopK(q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.TopK(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCorrelateTopKMerged is a sharded /correlate at the serving
// corpus scale: an 8 K-tuple relation split by annotation family over two
// shards, queried for an annotation anchor (its bitmap walked on the shard
// that owns it) and a data anchor (held by both, walked on the first).
func BenchmarkCorrelateTopKMerged(b *testing.B) {
	full := randomRelation(rand.New(rand.NewSource(42)), 8000)
	rels := []*relation.Relation{relation.New(), relation.New()}
	dict := full.Dictionary()
	full.View().Each(func(_ int, tu relation.Tuple) bool {
		data := dict.Tokens(tu.Data)
		annots := make([][]string, len(rels))
		for _, token := range dict.Tokens(tu.Annots) {
			s := len(relation.FamilyOf(token)) % len(rels)
			annots[s] = append(annots[s], token)
		}
		for s, rel := range rels {
			rel.Append(relation.MustTuple(rel.Dictionary(), data, annots[s]))
		}
		return true
	})
	shards := []*Index{NewIndex(rels[0].View()), NewIndex(rels[1].View())}
	for _, anchor := range []string{"cpu:high", "img=i1"} {
		b.Run(anchor, func(b *testing.B) {
			q := Query{Anchor: anchor, K: DefaultK, MinLift: DefaultMinLift}
			if _, err := TopKMerged(shards, q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := TopKMerged(shards, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
