package relation

import "annotadb/internal/itemset"

// MustTuple resolves the given tokens into a tuple (Dictionary.ResolveTuple)
// and panics on failure. It exists for tests and examples where the tokens
// are literals.
func MustTuple(dict *Dictionary, data []string, annots []string) Tuple {
	tu, err := dict.ResolveTuple(data, annots)
	if err != nil {
		panic(err)
	}
	return tu
}

// MustAnnotation interns token as a raw annotation, panicking on failure.
func MustAnnotation(dict *Dictionary, token string) itemset.Item {
	it, err := dict.InternAnnotation(token)
	if err != nil {
		panic(err)
	}
	return it
}

// MustData interns token as a data value, panicking on failure.
func MustData(dict *Dictionary, token string) itemset.Item {
	it, err := dict.InternData(token)
	if err != nil {
		panic(err)
	}
	return it
}

// FromTransactions builds a relation holding one tuple per transaction, so a
// test holding a transaction slice can mine it from the bitmaps; the apriori
// and fpgrowth tests are its callers. The items are used as they are: none is
// interned in the relation's fresh dictionary. (A write batch is counted and
// mined through a BatchIndex, not a throwaway relation.)
func FromTransactions(txns []itemset.Itemset) *Relation {
	r := New()
	tuples := make([]Tuple, len(txns))
	for i, t := range txns {
		tuples[i] = NewTuple(t...)
	}
	r.Append(tuples...)
	return r
}

// FromTokens builds a relation from token matrices: row i carries data
// values data[i] and annotations annots[i] (annots may be shorter than data;
// missing rows mean "no annotations"). It is the quickest way to set up
// fixtures in tests and examples.
func FromTokens(data [][]string, annots [][]string) *Relation {
	r := New()
	for i := range data {
		var a []string
		if i < len(annots) {
			a = annots[i]
		}
		r.Append(MustTuple(r.Dictionary(), data[i], a))
	}
	return r
}
