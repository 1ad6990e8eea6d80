package relation

import "strings"

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
