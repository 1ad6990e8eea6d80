package shard

import (
	"fmt"
	"slices"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

// ProjectAll builds every shard's replica of src in a single pass: shard s
// receives each tuple's data values plus the annotations, raw or derived,
// whose family hashes to s, in src's tuple order, under fresh per-shard
// dictionaries that keep each item's kind (relation.Dictionary.Import).
func ProjectAll(src relation.Source, n int) ([]*relation.Relation, error) {
	return project(src, n, -1)
}

// Project builds shard s's replica of src alone — ProjectAll's s-th
// relation. The durable open path uses it to project each shard
// independently (and concurrently).
func Project(src relation.Source, s, n int) (*relation.Relation, error) {
	rels, err := project(src, n, s)
	if err != nil {
		return nil, err
	}
	return rels[s], nil
}

// project builds the replicas of src in one pass: every shard's when only
// is negative, else shard only's (the other entries stay nil). Each distinct
// source item is translated once (translator); the shards share every data
// set that translates to itself, and each relation sizes its bitmaps once in
// one bulk Append.
func project(src relation.Source, n, only int) ([]*relation.Relation, error) {
	rels := make([]*relation.Relation, n)
	dicts := make([]*relation.Dictionary, n)
	batches := make([][]relation.Tuple, n)
	for s := range rels {
		if only < 0 || s == only {
			rels[s] = relation.New()
			dicts[s] = rels[s].Dictionary()
			batches[s] = make([]relation.Tuple, 0, src.Len())
		}
	}
	tr := newTranslator(src.Dictionary(), dicts)
	src.Each(func(_ int, tu relation.Tuple) bool {
		data := tr.dataSet(tu.Data)
		for s, rel := range rels {
			if rel != nil {
				batches[s] = append(batches[s], relation.Tuple{Data: data, Annots: tr.annotSet(s, tu.Annots)})
			}
		}
		return tr.err == nil
	})
	if tr.err != nil {
		return nil, fmt.Errorf("shard: project: %w", tr.err)
	}
	for s, rel := range rels {
		if rel != nil {
			rel.Append(batches[s]...)
		}
	}
	return rels, nil
}

// translator copies the items of one dictionary's tuples into shard
// dictionaries through Dictionary.Import — the one interning rule — and
// translates each distinct source item once: the first time it is met, so a
// walk in tuple order and set order gives every target the ids an
// item-by-item copy would. Later occurrences read a dense table indexed by
// kind and source id.
//
// A data value goes to every target, an annotation only to the shard its
// family hashes to, when that shard is a target. The targets must hold the
// same data values under the same ids (fresh dictionaries, or a single
// target), so a data value has one translation for all of them.
type translator struct {
	src   *relation.Dictionary
	dicts []*relation.Dictionary // by shard; nil for a shard not translated into

	data         []itemset.Item // by source data id; None until met
	raw, derived []placed       // by source annotation id
	err          error          // the first failure; the walk stops there
}

// placed is where a source annotation went: its owner shard and its item
// there, None when the owner is not a target.
type placed struct {
	shard int32
	met   bool
	item  itemset.Item
}

func newTranslator(src *relation.Dictionary, dicts []*relation.Dictionary) *translator {
	return &translator{
		src:     src,
		dicts:   dicts,
		data:    make([]itemset.Item, src.CountOf(relation.KindData)+1),
		raw:     make([]placed, src.CountOf(relation.KindAnnotation)+1),
		derived: make([]placed, src.CountOf(relation.KindDerived)+1),
	}
}

// entry returns the table entry of source id, growing the table when the
// source dictionary has interned more tokens since the translator was made.
func entry[T any](table *[]T, id int) *T {
	if id >= len(*table) {
		*table = append(*table, make([]T, id+1-len(*table))...)
	}
	return &(*table)[id]
}

// token returns it's source token, recording a failure when it has none.
func (t *translator) token(it itemset.Item) (string, bool) {
	tok, ok := t.src.TokenOK(it)
	if !ok {
		t.fail(fmt.Errorf("item %v has no token", it))
	}
	return tok, ok
}

func (t *translator) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// dataItem returns data value it's item in the targets, translating it the
// first time it is met.
func (t *translator) dataItem(it itemset.Item) itemset.Item {
	e := entry(&t.data, it.ID())
	if *e != itemset.None {
		return *e
	}
	tok, ok := t.token(it)
	if !ok {
		return itemset.None
	}
	for _, d := range t.dicts {
		if d == nil {
			continue
		}
		v, err := d.Import(tok, it)
		if err != nil {
			t.fail(err)
			return itemset.None
		}
		*e = v
	}
	return *e
}

// dataSet returns data set d in the targets, one set for all of them. When
// every value translates to itself it is d: a data set is read-only once
// appended (relation.Relation.Append), so the shards share the source's.
// Otherwise it is a translated, sorted copy.
func (t *translator) dataSet(d itemset.Itemset) itemset.Itemset {
	same := true
	for _, it := range d {
		same = t.dataItem(it) == it && same
	}
	if same || t.err != nil {
		return d
	}
	out := make(itemset.Itemset, len(d))
	for i, it := range d {
		out[i] = t.data[it.ID()]
	}
	slices.Sort(out)
	return out
}

// annotation returns where annotation it goes, translating it — its owner
// shard computed, its item imported there — the first time it is met.
func (t *translator) annotation(it itemset.Item) placed {
	table := &t.raw
	if it.IsDerived() {
		table = &t.derived
	}
	e := entry(table, it.ID())
	if e.met {
		return *e
	}
	tok, ok := t.token(it)
	if !ok {
		return placed{shard: -1}
	}
	s := ShardOf(tok, len(t.dicts))
	*e = placed{shard: int32(s), met: true}
	if d := t.dicts[s]; d != nil {
		v, err := d.Import(tok, it)
		if err != nil {
			t.fail(err)
			return placed{shard: -1}
		}
		e.item = v
	}
	return *e
}

// annotSet returns shard s's share of annotation set a, translated and
// sorted; nil when the share is empty.
func (t *translator) annotSet(s int, a itemset.Itemset) itemset.Itemset {
	k := 0
	for _, it := range a {
		if t.annotation(it).shard == int32(s) {
			k++
		}
	}
	if k == 0 {
		return nil
	}
	out := make(itemset.Itemset, 0, k)
	for _, it := range a {
		if p := t.annotation(it); p.shard == int32(s) {
			out = append(out, p.item)
		}
	}
	slices.Sort(out)
	return out
}
