// Package relation implements the annotated relational store at the base of
// annotadb: dictionary-encoded tuples carrying data values and annotation
// sets, plus the two auxiliary structures the paper's incremental algorithms
// rely on — the annotation inverted index ("the system indexes the
// annotations such that given a query annotation, we can efficiently find all
// data tuples having this annotation", §4.3) and the annotation frequency
// table ("the system maintains a table containing the frequency of each
// annotation, and it is updated whenever a new annotation is added", §4.3).
package relation

import (
	"fmt"
	"sort"
	"sync"

	"annotadb/internal/itemset"
)

// Kind classifies a dictionary token.
type Kind uint8

const (
	// KindData is a plain data value (the numeric IDs of Figure 4).
	KindData Kind = iota
	// KindAnnotation is a raw user-supplied annotation (Annot_4 in Figure 4).
	KindAnnotation
	// KindDerived is a generalization label attached by the system (§4.1).
	KindDerived
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAnnotation:
		return "annotation"
	case KindDerived:
		return "derived"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Dictionary maps external tokens (the strings appearing in dataset files) to
// dense itemset.Item codes and back. A token has exactly one kind; interning
// the same token under a different kind is an error, which catches dataset
// files that use one spelling both as a value and as an annotation.
//
// Dictionary is safe for concurrent use.
type Dictionary struct {
	mu      sync.RWMutex
	byToken map[string]itemset.Item
	byItem  map[itemset.Item]string
	counts  [3]int // interned tokens per kind
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{
		byToken: make(map[string]itemset.Item),
		byItem:  make(map[itemset.Item]string),
	}
}

func (d *Dictionary) intern(token string, kind Kind) (itemset.Item, error) {
	if token == "" {
		return itemset.None, fmt.Errorf("relation: cannot intern empty token")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if it, ok := d.byToken[token]; ok {
		if have := kindOf(it); have != kind {
			return itemset.None, &KindError{Token: token, Have: have, Want: kind}
		}
		return it, nil
	}
	id := d.counts[kind] + 1
	if id > itemset.MaxID {
		return itemset.None, fmt.Errorf("relation: %s dictionary full (%d tokens)", kind, itemset.MaxID)
	}
	var it itemset.Item
	switch kind {
	case KindData:
		it = itemset.DataItem(id)
	case KindAnnotation:
		it = itemset.AnnotationItem(id)
	case KindDerived:
		it = itemset.DerivedItem(id)
	default:
		return itemset.None, fmt.Errorf("relation: unknown kind %v", kind)
	}
	d.counts[kind] = id
	d.byToken[token] = it
	d.byItem[it] = token
	return it, nil
}

func kindOf(it itemset.Item) Kind {
	switch {
	case it.IsDerived():
		return KindDerived
	case it.IsAnnotation():
		return KindAnnotation
	default:
		return KindData
	}
}

// InternData interns token as a data value.
func (d *Dictionary) InternData(token string) (itemset.Item, error) {
	return d.intern(token, KindData)
}

// InternAnnotation interns token as a raw annotation.
func (d *Dictionary) InternAnnotation(token string) (itemset.Item, error) {
	return d.intern(token, KindAnnotation)
}

// InternDerived interns token as a derived generalization label.
func (d *Dictionary) InternDerived(token string) (itemset.Item, error) {
	return d.intern(token, KindDerived)
}

// Lookup returns the item for token, if interned.
func (d *Dictionary) Lookup(token string) (itemset.Item, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	it, ok := d.byToken[token]
	return it, ok
}

// Token returns the external token for an item. Unknown items render as
// the item's debug form so that diagnostics never panic.
func (d *Dictionary) Token(it itemset.Item) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if tok, ok := d.byItem[it]; ok {
		return tok
	}
	return it.String()
}

// TokenOK returns the external token for an item and whether it was interned.
func (d *Dictionary) TokenOK(it itemset.Item) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	tok, ok := d.byItem[it]
	return tok, ok
}

// Tokens renders an itemset as external tokens, in the set's canonical order.
func (d *Dictionary) Tokens(s itemset.Itemset) []string {
	out := make([]string, len(s))
	for i, it := range s {
		out[i] = d.Token(it)
	}
	return out
}

// Len returns the total number of interned tokens.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byToken)
}

// CountOf returns the number of interned tokens of a kind.
func (d *Dictionary) CountOf(kind Kind) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(kind) >= len(d.counts) {
		return 0
	}
	return d.counts[kind]
}

// AnnotationItems returns every interned raw-annotation item, sorted.
func (d *Dictionary) AnnotationItems() itemset.Itemset {
	return d.itemsOf(KindAnnotation)
}

// DerivedItems returns every interned derived-label item, sorted.
func (d *Dictionary) DerivedItems() itemset.Itemset {
	return d.itemsOf(KindDerived)
}

// DataItems returns every interned data-value item, sorted.
func (d *Dictionary) DataItems() itemset.Itemset {
	return d.itemsOf(KindData)
}

func (d *Dictionary) itemsOf(kind Kind) itemset.Itemset {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []itemset.Item
	for it := range d.byItem {
		if kindOf(it) == kind {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return itemset.FromSorted(out)
}

// Clone returns a deep copy of the dictionary. Clones are used by tests and
// by the incremental engine's re-mine fallback so that mutation experiments
// cannot interfere with each other.
func (d *Dictionary) Clone() *Dictionary {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := NewDictionary()
	for tok, it := range d.byToken {
		c.byToken[tok] = it
		c.byItem[it] = tok
	}
	c.counts = d.counts
	return c
}
