package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

// referenceProject is the item-by-item projection the translator replaced,
// kept as the oracle: every occurrence of every item is looked up in the
// source dictionary and imported into its target, and every shard tuple is
// built by NewTuple.
func referenceProject(src relation.Source, n, only int) ([]*relation.Relation, error) {
	srcDict := src.Dictionary()
	rels := make([]*relation.Relation, n)
	dicts := make([]*relation.Dictionary, n)
	var targets []int
	for s := range rels {
		if only < 0 || s == only {
			rels[s] = relation.New()
			dicts[s] = rels[s].Dictionary()
			targets = append(targets, s)
		}
	}
	batches := make([][]relation.Tuple, n)
	items := make([][]itemset.Item, n)
	var buildErr error
	put := func(s int, tok string, it itemset.Item) bool {
		v, err := dicts[s].Import(tok, it)
		if err != nil {
			buildErr = err
			return false
		}
		items[s] = append(items[s], v)
		return true
	}
	tokenOf := func(it itemset.Item) (string, bool) {
		tok, ok := srcDict.TokenOK(it)
		if !ok {
			buildErr = fmt.Errorf("item %v has no token", it)
		}
		return tok, ok
	}
	src.Each(func(_ int, tu relation.Tuple) bool {
		for _, s := range targets {
			items[s] = items[s][:0]
		}
		for _, it := range tu.Data {
			tok, ok := tokenOf(it)
			if !ok {
				return false
			}
			for _, s := range targets {
				if !put(s, tok, it) {
					return false
				}
			}
		}
		for _, it := range tu.Annots {
			tok, ok := tokenOf(it)
			if !ok {
				return false
			}
			if s := ShardOf(tok, n); dicts[s] != nil && !put(s, tok, it) {
				return false
			}
		}
		for _, s := range targets {
			batches[s] = append(batches[s], relation.NewTuple(items[s]...))
		}
		return true
	})
	if buildErr != nil {
		return nil, buildErr
	}
	for _, s := range targets {
		rels[s].Append(batches[s]...)
	}
	return rels, nil
}

// randomSource builds a relation with several annotation families (and
// separator-less tokens, each its own family), derived labels,
// annotation-free tuples, and — on odd seeds — a dictionary that interned
// tokens out of tuple order and tokens no tuple carries, so translating
// into a fresh dictionary is not the identity. Tuples arrive in single and
// bulk appends, and some annotations are attached and detached afterwards.
func randomSource(rng *rand.Rand, shuffled bool) *relation.Relation {
	const values = 40
	dict := relation.NewDictionary()
	var annotVocab, derivedVocab []string
	for f := 0; f < 5; f++ {
		for m := 0; m < 3; m++ {
			annotVocab = append(annotVocab, fmt.Sprintf("Annot_f%d:m%d", f, m))
		}
	}
	annotVocab = append(annotVocab, "Solo_a", "Solo_b")
	for g := 0; g < 4; g++ {
		derivedVocab = append(derivedVocab, fmt.Sprintf("Gen_f%d:g", g))
	}
	if shuffled {
		for _, v := range rng.Perm(values + 10) {
			relation.MustData(dict, fmt.Sprintf("v%d", v))
		}
		for _, i := range rng.Perm(len(annotVocab)) {
			relation.MustAnnotation(dict, annotVocab[i])
		}
		relation.MustAnnotation(dict, "Unused_annotation")
	}
	for _, i := range rng.Perm(len(derivedVocab)) {
		if _, err := dict.InternDerived(derivedVocab[i]); err != nil {
			panic(err)
		}
	}
	rel := relation.NewWithDictionary(dict)
	n := rng.Intn(300)
	var batch []relation.Tuple
	for i := 0; i < n; i++ {
		var vals, annots []string
		for k := rng.Intn(6); k > 0; k-- {
			vals = append(vals, fmt.Sprintf("v%d", rng.Intn(values)))
		}
		if rng.Float64() < 0.7 {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				annots = append(annots, annotVocab[rng.Intn(len(annotVocab))])
			}
			if rng.Float64() < 0.3 {
				annots = append(annots, derivedVocab[rng.Intn(len(derivedVocab))])
			}
		}
		batch = append(batch, relation.MustTuple(dict, vals, annots))
		if rng.Float64() < 0.1 {
			rel.Append(batch...)
			batch = batch[:0]
		}
	}
	rel.Append(batch...)
	for k := rng.Intn(20); k > 0 && rel.Len() > 0; k-- {
		i := rng.Intn(rel.Len())
		a := relation.MustAnnotation(dict, annotVocab[rng.Intn(len(annotVocab))])
		if rel.AddAnnotation(i, a) != nil {
			if err := rel.RemoveAnnotation(i, a); err != nil {
				panic(err)
			}
		}
	}
	return rel
}

// sameProjection fails t unless got and want hold the same dictionary
// (token → item), the same tuples, and the same postings and counts for
// every item.
func sameProjection(t *testing.T, what string, got, want *relation.Relation) {
	t.Helper()
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	gd, wd := got.Dictionary(), want.Dictionary()
	if gd.Len() != wd.Len() {
		t.Fatalf("%s: dictionary holds %d tokens, want %d", what, gd.Len(), wd.Len())
	}
	for _, items := range [][2]itemset.Itemset{
		{gd.DataItems(), wd.DataItems()},
		{gd.AnnotationItems(), wd.AnnotationItems()},
		{gd.DerivedItems(), wd.DerivedItems()},
	} {
		if !items[0].Equal(items[1]) {
			t.Fatalf("%s: dictionary items %v, want %v", what, items[0], items[1])
		}
		for _, it := range items[1] {
			if g, w := gd.Token(it), wd.Token(it); g != w {
				t.Fatalf("%s: item %v is %q, want %q", what, it, g, w)
			}
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d tuples, want %d", what, got.Len(), want.Len())
	}
	want.Each(func(i int, w relation.Tuple) bool {
		g, err := got.Tuple(i)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Data.Equal(w.Data) || !g.Annots.Equal(w.Annots) {
			t.Fatalf("%s: tuple %d is %v %v, want %v %v", what, i, g.Data, g.Annots, w.Data, w.Annots)
		}
		return true
	})
	type entry struct {
		item      itemset.Item
		count     int
		positions []int
	}
	postings := func(v *relation.View) []entry {
		var out []entry
		v.EachItem(func(a itemset.Item, n int) {
			e := entry{item: a, count: n}
			v.Postings(a).Each(func(i int) bool {
				e.positions = append(e.positions, i)
				return true
			})
			out = append(out, e)
		})
		return out
	}
	gp, wp := postings(got.View()), postings(want.View())
	if !slices.EqualFunc(gp, wp, func(a, b entry) bool {
		return a.item == b.item && a.count == b.count && slices.Equal(a.positions, b.positions)
	}) {
		t.Fatalf("%s: postings %v, want %v", what, gp, wp)
	}
}

// TestPropertyProjectMatchesReference checks the one-pass projection against
// the item-by-item one over random relations, from a live relation and from
// a view, at one to five shards: every shard's dictionary, tuples, postings
// and counts are identical, and Project(src, s, n) is ProjectAll(src, n)[s].
func TestPropertyProjectMatchesReference(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 40; seed++ {
		rel := randomSource(rand.New(rand.NewSource(seed)), seed%2 == 1)
		for _, src := range []relation.Source{rel, rel.View()} {
			for n := 1; n <= 5; n++ {
				what := fmt.Sprintf("seed %d, %T, n=%d", seed, src, n)
				want, err := referenceProject(src, n, -1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ProjectAll(src, n)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < n; s++ {
					sameProjection(t, fmt.Sprintf("%s, shard %d", what, s), got[s], want[s])
					one, err := Project(src, s, n)
					if err != nil {
						t.Fatal(err)
					}
					sameProjection(t, fmt.Sprintf("%s, Project shard %d", what, s), one, got[s])
				}
			}
		}
	}
}

// TestProjectIsolatesSourceAndShards writes the source and a shard after a
// projection that shares the source's data sets — attach, detach and
// append on both — and checks that neither write reaches the other's
// tuples.
func TestProjectIsolatesSourceAndShards(t *testing.T) {
	t.Parallel()
	src := randomSource(rand.New(rand.NewSource(3)), false)
	for src.Len() < 2 {
		src.Append(relation.MustTuple(src.Dictionary(), []string{"v1", "v2"}, []string{"Annot_f0:m0"}))
	}
	rels, err := ProjectAll(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	shard := rels[0]
	snapshot := func(rel *relation.Relation) []relation.Tuple {
		var out []relation.Tuple
		rel.Each(func(_ int, tu relation.Tuple) bool {
			out = append(out, tu.Clone())
			return true
		})
		return out
	}
	unchanged := func(what string, rel *relation.Relation, before []relation.Tuple) {
		t.Helper()
		for i, w := range before {
			g, err := rel.Tuple(i)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Data.Equal(w.Data) || !g.Annots.Equal(w.Annots) {
				t.Fatalf("%s: tuple %d became %v %v, was %v %v", what, i, g.Data, g.Annots, w.Data, w.Annots)
			}
		}
	}
	// write attaches a fresh annotation to tuple 0, detaches one from tuple
	// 1 (attaching it first if tuple 1 has none), and appends a tuple over
	// existing and new data values.
	write := func(rel *relation.Relation) {
		t.Helper()
		dict := rel.Dictionary()
		if err := rel.AddAnnotation(0, relation.MustAnnotation(dict, "Annot_f0:fresh")); err != nil {
			t.Fatal(err)
		}
		tu, err := rel.Tuple(1)
		if err != nil {
			t.Fatal(err)
		}
		a := relation.MustAnnotation(dict, "Annot_f0:m1")
		if len(tu.Annots) > 0 {
			a = tu.Annots[0]
		} else if err := rel.AddAnnotation(1, a); err != nil {
			t.Fatal(err)
		}
		if err := rel.RemoveAnnotation(1, a); err != nil {
			t.Fatal(err)
		}
		rel.Append(relation.MustTuple(dict, []string{"v1", "v-new"}, []string{"Annot_f0:m0"}))
		if err := rel.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	shardBefore := snapshot(shard)
	write(src)
	unchanged("shard after source writes", shard, shardBefore)
	srcBefore := snapshot(src)
	write(shard)
	unchanged("source after shard writes", src, srcBefore)
	if err := src.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
