// Package rules defines the association-rule model shared by the miners and
// the incremental maintenance engine, plus the Figure 7 rule output format.
//
// Following the paper's Figures 12 and 13, a rule carries raw integer counts
// (numerator and "de-numerator") rather than floating-point support and
// confidence: the incremental algorithms update the counts, and the ratios
// are derived. Keeping integers makes "incremental result == full re-mine"
// an exact set equality instead of an epsilon comparison.
package rules

import (
	"fmt"
	"sort"
	"strings"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

// Kind classifies a rule by its left-hand side, matching Defs. 4.2 and 4.3.
type Kind uint8

const (
	// DataToAnnotation rules have a pure data-value LHS (Def. 4.2).
	DataToAnnotation Kind = iota
	// AnnotationToAnnotation rules have a pure annotation LHS (Def. 4.3).
	AnnotationToAnnotation
	// MixedKind marks a rule whose LHS mixes data values and annotations.
	// The paper's definitions exclude these; the kind exists so validation
	// can report them instead of silently misclassifying.
	MixedKind
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case DataToAnnotation:
		return "data-to-annotation"
	case AnnotationToAnnotation:
		return "annotation-to-annotation"
	case MixedKind:
		return "mixed"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Rule is an association rule LHS ⇒ RHS where RHS is a single annotation.
//
// Counts:
//
//	PatternCount — tuples containing LHS ∪ {RHS} (the support numerator and
//	               the confidence numerator);
//	LHSCount     — tuples containing LHS (the confidence denominator, the
//	               paper's "de-numerator");
//	N            — total tuples in the relation (the support denominator).
type Rule struct {
	LHS          itemset.Itemset
	RHS          itemset.Item
	PatternCount int
	LHSCount     int
	N            int
}

// Pattern returns LHS ∪ {RHS}.
func (r Rule) Pattern() itemset.Itemset { return r.LHS.Add(r.RHS) }

// Support returns PatternCount / N, or 0 for an empty relation.
func (r Rule) Support() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.PatternCount) / float64(r.N)
}

// Confidence returns PatternCount / LHSCount, or 0 when the LHS never occurs.
func (r Rule) Confidence() float64 {
	if r.LHSCount == 0 {
		return 0
	}
	return float64(r.PatternCount) / float64(r.LHSCount)
}

// Kind classifies the rule by its LHS (the RHS is always an annotation).
func (r Rule) Kind() Kind {
	switch {
	case r.LHS.PureData():
		return DataToAnnotation
	case r.LHS.PureAnnotations():
		return AnnotationToAnnotation
	default:
		return MixedKind
	}
}

// Meets reports whether the rule satisfies the thresholds. Comparisons are
// done in integer arithmetic (count*denominator form) to avoid float
// boundary artifacts at exact thresholds like support = 0.4 on N = 5.
func (r Rule) Meets(minSupport, minConfidence float64) bool {
	// support >= minSupport  ⇔  PatternCount >= minSupport * N
	if float64(r.PatternCount) < minSupport*float64(r.N)-1e-9 {
		return false
	}
	if r.LHSCount == 0 {
		return false
	}
	if float64(r.PatternCount) < minConfidence*float64(r.LHSCount)-1e-9 {
		return false
	}
	return true
}

// Validate checks internal consistency: counts ordered, RHS an annotation,
// LHS canonical and not containing RHS.
func (r Rule) Validate() error {
	if !r.RHS.IsAnnotation() {
		return fmt.Errorf("rules: RHS %v is not an annotation", r.RHS)
	}
	if !r.LHS.Wellformed() {
		return fmt.Errorf("rules: LHS %v not canonical", r.LHS)
	}
	if r.LHS.Empty() {
		return fmt.Errorf("rules: empty LHS")
	}
	if r.LHS.Contains(r.RHS) {
		return fmt.Errorf("rules: RHS %v also in LHS", r.RHS)
	}
	if r.PatternCount < 0 || r.LHSCount < 0 || r.N < 0 {
		return fmt.Errorf("rules: negative count in %v", r)
	}
	if r.PatternCount > r.LHSCount {
		return fmt.Errorf("rules: pattern count %d exceeds LHS count %d", r.PatternCount, r.LHSCount)
	}
	if r.LHSCount > r.N {
		return fmt.Errorf("rules: LHS count %d exceeds relation size %d", r.LHSCount, r.N)
	}
	if r.Kind() == MixedKind {
		return fmt.Errorf("rules: mixed LHS %v not allowed by Defs 4.2/4.3", r.LHS)
	}
	return nil
}

// ID returns a canonical identity key for the rule: LHS plus RHS. Two rules
// with the same ID describe the same implication regardless of counts. It
// costs one allocation, the string; AppendID builds the same bytes into a
// caller's buffer.
func (r Rule) ID() RuleID {
	var buf [64]byte
	return RuleID(r.AppendID(buf[:0]))
}

// AppendID appends the bytes of r.ID() to b and returns the extended buffer:
// the LHS's itemset.Key followed by the RHS's, each item four bytes
// big-endian. With a reused buffer and Set.HasID, a rule is looked up
// without allocating.
func (r Rule) AppendID(b []byte) []byte {
	for _, it := range r.LHS {
		b = appendItem(b, it)
	}
	return appendItem(b, r.RHS)
}

func appendItem(b []byte, it itemset.Item) []byte {
	v := uint32(it)
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// RuleID identifies a rule by its itemsets; see Rule.ID.
type RuleID string

// String renders the debug form, e.g. {d1 d2} => a3 (sup 0.42, conf 0.97).
func (r Rule) String() string {
	return fmt.Sprintf("%v => %v (sup %.4f, conf %.4f)", r.LHS, r.RHS, r.Support(), r.Confidence())
}

// Format renders the Figure 7 output line using dictionary tokens:
//
//	28, 85 -> Annot_1 (confidence: 0.9659, support: 0.4194)
func (r Rule) Format(dict *relation.Dictionary) string { return Render(dict, r).String() }

// TokenRule is a rule rendered to dictionary tokens with its ratios
// precomputed: the one token-form rule type, served by the public API and —
// through its JSON tags — by GET /rules and GET /recommend as is. Rule keeps
// the ratios as methods because maintenance updates the counts; a TokenRule
// is a finished rendering, so it carries them as fields.
type TokenRule struct {
	// LHS and RHS are dictionary tokens.
	LHS []string `json:"lhs"`
	RHS string   `json:"rhs"`
	// Kind is the wire spelling of the rule's Kind ("data-to-annotation" or
	// "annotation-to-annotation").
	Kind string `json:"kind"`
	// Support is PatternCount / N and Confidence PatternCount / LHSCount.
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
	// PatternCount tuples contain LHS ∪ {RHS}, LHSCount contain LHS, out of
	// N tuples.
	PatternCount int `json:"pattern_count"`
	LHSCount     int `json:"lhs_count"`
	N            int `json:"n"`
}

// String renders the Figure 7 output line.
func (r TokenRule) String() string {
	return fmt.Sprintf("%s -> %s (confidence: %.4f, support: %.4f)",
		strings.Join(r.LHS, ", "), r.RHS, r.Confidence, r.Support)
}

// RenderAll renders rs in order. The result is never nil, so an empty rule
// set encodes as [] rather than null.
func RenderAll(dict *relation.Dictionary, rs []Rule) []TokenRule {
	out := make([]TokenRule, len(rs))
	for i, r := range rs {
		out[i] = Render(dict, r)
	}
	return out
}

// Render resolves a rule's items against dict and derives its ratios. It is
// the only item-form to token-form rule conversion.
func Render(dict *relation.Dictionary, r Rule) TokenRule {
	return TokenRule{
		LHS:          dict.Tokens(r.LHS),
		RHS:          dict.Token(r.RHS),
		Kind:         r.Kind().String(),
		Support:      r.Support(),
		Confidence:   r.Confidence(),
		PatternCount: r.PatternCount,
		LHSCount:     r.LHSCount,
		N:            r.N,
	}
}

// Set is a collection of rules keyed by identity. The zero value is not
// ready; use NewSet.
type Set struct {
	byID map[RuleID]Rule
}

// NewSet returns an empty rule set.
func NewSet() *Set { return &Set{byID: make(map[RuleID]Rule)} }

// Len returns the number of rules.
func (s *Set) Len() int { return len(s.byID) }

// Add inserts or replaces a rule.
func (s *Set) Add(r Rule) { s.byID[r.ID()] = r }

// Remove deletes the rule with r's identity, reporting whether it existed.
func (s *Set) Remove(id RuleID) bool {
	if _, ok := s.byID[id]; !ok {
		return false
	}
	delete(s.byID, id)
	return true
}

// Get returns the stored rule with the given identity.
func (s *Set) Get(id RuleID) (Rule, bool) {
	r, ok := s.byID[id]
	return r, ok
}

// Has reports whether a rule with r's identity is present.
func (s *Set) Has(id RuleID) bool {
	_, ok := s.byID[id]
	return ok
}

// HasID is Has for an identity in AppendID's bytes. The map probe converts
// the bytes without copying them, so it does not allocate.
func (s *Set) HasID(id []byte) bool {
	_, ok := s.byID[RuleID(id)]
	return ok
}

// Each visits rules in unspecified order; fn returning false stops the walk.
func (s *Set) Each(fn func(Rule) bool) {
	for _, r := range s.byID {
		if !fn(r) {
			return
		}
	}
}

// Update applies fn to the stored rule with the given identity, if present,
// and stores the result back. It reports whether the rule existed.
func (s *Set) Update(id RuleID, fn func(Rule) Rule) bool {
	r, ok := s.byID[id]
	if !ok {
		return false
	}
	s.byID[id] = fn(r)
	return true
}

// Rewrite hands fn a copy of every rule and stores the copy back under the
// rule's existing identity when fn reports a change. fn may change counts
// only, never LHS or RHS, which is why no identity is recomputed: a rewrite
// costs no key building, and a rule fn leaves unchanged is not written.
func (s *Set) Rewrite(fn func(r *Rule) bool) {
	for id, r := range s.byID {
		if fn(&r) {
			s.byID[id] = r
		}
	}
}

// Sorted returns the rules ordered deterministically: by kind
// (DataToAnnotation, AnnotationToAnnotation, MixedKind), then LHS length,
// then LHS items, then RHS, comparing items by their interned ids. Output
// files and test diffs depend on this order.
func (s *Set) Sorted() []Rule {
	out := make([]Rule, 0, len(s.byID))
	for _, r := range s.byID {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind() != out[j].Kind() {
			return out[i].Kind() < out[j].Kind()
		}
		if c := out[i].LHS.Compare(out[j].LHS); c != 0 {
			return c < 0
		}
		return out[i].RHS < out[j].RHS
	})
	return out
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := NewSet()
	for id, r := range s.byID {
		c.byID[id] = r
	}
	return c
}

// OfKind returns a new set holding only rules of the given kind.
func (s *Set) OfKind(k Kind) *Set {
	c := NewSet()
	for id, r := range s.byID {
		if r.Kind() == k {
			c.byID[id] = r
		}
	}
	return c
}

// Filter returns a new set holding the rules for which keep returns true.
func (s *Set) Filter(keep func(Rule) bool) *Set {
	c := NewSet()
	for id, r := range s.byID {
		if keep(r) {
			c.byID[id] = r
		}
	}
	return c
}

// Diff compares two rule sets exactly — identity and counts — and returns
// human-readable discrepancies, empty when the sets are identical. It is the
// workhorse of the paper's verification methodology ("the association rules
// resulting from both processes were identical").
func Diff(got, want *Set, dict *relation.Dictionary) []string {
	var out []string
	tok := func(r Rule) string {
		if dict != nil {
			return r.Format(dict)
		}
		return r.String()
	}
	for id, w := range want.byID {
		g, ok := got.byID[id]
		if !ok {
			out = append(out, fmt.Sprintf("missing rule: %s", tok(w)))
			continue
		}
		if g.PatternCount != w.PatternCount || g.LHSCount != w.LHSCount || g.N != w.N {
			out = append(out, fmt.Sprintf("count mismatch: got %d/%d/%d want %d/%d/%d for %s",
				g.PatternCount, g.LHSCount, g.N, w.PatternCount, w.LHSCount, w.N, tok(w)))
		}
	}
	for id, g := range got.byID {
		if _, ok := want.byID[id]; !ok {
			out = append(out, fmt.Sprintf("extra rule: %s", tok(g)))
		}
	}
	sort.Strings(out)
	return out
}
