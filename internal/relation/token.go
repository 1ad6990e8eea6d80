package relation

import (
	"fmt"
	"strings"

	"annotadb/internal/itemset"
)

// TokenUpdate is one annotation attachment or detachment in token form:
// attach (or detach) Annotation to the tuple at zero-based position Tuple —
// the programmatic form of a Figure 14 batch line. It is the one update type
// from the public API to the write-ahead log: the JSON tags are both the
// POST /annotations body and the JSON WAL record encoding, so renaming one
// changes the log format. Tokens rather than dictionary item codes keep
// replay independent of interning order and let each shard own its
// dictionary.
type TokenUpdate struct {
	Tuple      int    `json:"tuple"`
	Annotation string `json:"annotation"`
}

// TokenTuple is one tuple to append, in token form: data value tokens plus
// annotation tokens. Like TokenUpdate its JSON tags serve the POST /tuples
// body and the JSON WAL record encoding alike.
type TokenTuple struct {
	Values      []string `json:"values"`
	Annotations []string `json:"annotations,omitempty"`
}

// FamilySeparator splits an annotation token into its family prefix and the
// member name: the family of "Annot_src:db1" is "Annot_src", and a token
// without a separator ("Annot_4") forms a single-member family of its own.
// Families are the unit of placement — every annotation of one family lives
// on one shard — so annotation-to-annotation correlations are discovered
// within a family (or across families that happen to co-locate); namespace
// tokens that should correlate under a shared family prefix.
const FamilySeparator = ":"

// FamilyOf extracts the annotation family from a token: the prefix before
// the first FamilySeparator, or the whole token when no separator appears.
// Write routing, event labels, subscription filters and /correlate results
// all call this one function, so a label can never disagree with the shard
// that owns the token.
func FamilyOf(token string) string {
	family, _, _ := strings.Cut(token, FamilySeparator)
	return family
}

// The write-path interning rule. Every write — a live request, a dataset
// file, a logged record being replayed, a shard projection — turns tokens
// into items through the methods below, so each path accepts exactly the
// tokens replay accepts:
//
//   - an interned annotation, raw or derived, resolves to itself;
//   - a token interned as a data value is refused as an annotation (and an
//     annotation token is refused as a value);
//   - an unknown annotation token is interned as a raw annotation;
//   - value tokens are interned as data.
//
// Only a generalization creates a derived label (InternDerived); naming an
// existing one in a write attaches it like any annotation.

// KindError refuses to give an interned token a second kind — a data value
// named as an annotation, an annotation named as a value — on every intern
// and resolve path.
type KindError struct {
	Token string
	Have  Kind // the kind the token is interned as
	Want  Kind // the kind the write asked for
}

// Error describes the conflict.
func (e *KindError) Error() string {
	return fmt.Sprintf("relation: token %q already interned as %s, cannot re-intern as %s", e.Token, e.Have, e.Want)
}

// ResolveAnnotation returns the item of an annotation token under the
// write-path rule. The lookup comes first, so a hit takes only the read
// lock.
func (d *Dictionary) ResolveAnnotation(token string) (itemset.Item, error) {
	if it, ok := d.Lookup(token); ok {
		if !it.IsAnnotation() {
			return itemset.None, &KindError{Token: token, Have: KindData, Want: KindAnnotation}
		}
		return it, nil
	}
	return d.intern(token, KindAnnotation)
}

// ResolveTuple builds the tuple of value and annotation tokens under the
// write-path rule, resolving straight into the tuple's one backing array
// (see NewTuple).
func (d *Dictionary) ResolveTuple(values, annotations []string) (Tuple, error) {
	items := make([]itemset.Item, 0, len(values)+len(annotations))
	for _, tok := range values {
		it, err := d.intern(tok, KindData)
		if err != nil {
			return Tuple{}, err
		}
		items = append(items, it)
	}
	for _, tok := range annotations {
		it, err := d.ResolveAnnotation(tok)
		if err != nil {
			return Tuple{}, err
		}
		items = append(items, it)
	}
	return tupleOf(items), nil
}

// ResolveTuples resolves a token-form tuple batch in order; an error names
// the tuple's position in the batch.
func (d *Dictionary) ResolveTuples(batch []TokenTuple) ([]Tuple, error) {
	out := make([]Tuple, len(batch))
	for i, spec := range batch {
		tu, err := d.ResolveTuple(spec.Values, spec.Annotations)
		if err != nil {
			return nil, fmt.Errorf("tuple %d: %w", i, err)
		}
		out[i] = tu
	}
	return out, nil
}

// ResolveUpdates resolves a token-form annotation batch in order; an error
// names the update's position in the batch.
func (d *Dictionary) ResolveUpdates(batch []TokenUpdate) ([]AnnotationUpdate, error) {
	out := make([]AnnotationUpdate, len(batch))
	for i, u := range batch {
		it, err := d.ResolveAnnotation(u.Annotation)
		if err != nil {
			return nil, fmt.Errorf("update %d: %w", i, err)
		}
		out[i] = AnnotationUpdate{Index: u.Tuple, Annotation: it}
	}
	return out, nil
}

// Import interns token, the token of item it in another dictionary, under
// its kind: a projection or a replica repair copies a tuple between
// dictionaries without re-deciding what its items are.
func (d *Dictionary) Import(token string, it itemset.Item) (itemset.Item, error) {
	return d.intern(token, kindOf(it))
}
