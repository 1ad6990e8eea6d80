// Package correlate is the correlation-discovery subsystem: top-K anchor
// queries and churn-anomaly detection over the serving layer's immutable
// snapshots.
//
// Anchor discovery answers "which annotations move with this token?": given
// an anchor (an annotation or a data value), it ranks every co-occurring
// annotation by confidence and lift, keeping only candidates that pass a
// chi-square independence test (p ≤ 0.05, following Chanda et al.,
// "Statistically Significant Attribute Association Information") so that
// high-support noise cannot crowd out genuinely associated annotations. All
// counts come from one frozen relation.View generation — the paper's §4.3
// inverted index and frequency table, which covers data values as well as
// annotations — so a query takes zero engine locks, builds nothing and reads
// no tuple: each candidate's co-occurrence count is one AND-popcount of its
// bitmap with the anchor's.
//
// Churn-anomaly detection (detector.go) watches the rule-churn event stream
// for per-family spikes against an EWMA baseline and publishes them back
// into the stream as churn_anomaly events, so anomaly history rides the same
// durable, cursor-resumable machinery as rule churn itself.
package correlate

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

// ErrUnknownAnchor reports an anchor token with no occurrence in the
// queried generation — never interned, or interned but absent from every
// tuple the snapshot can see.
var ErrUnknownAnchor = errors.New("correlate: anchor token has no occurrences in this generation")

// ChiSquareCutoff is the chi-square critical value at one degree of freedom
// for p = 0.05: candidates below it are statistically indistinguishable
// from independence and are filtered out.
const ChiSquareCutoff = 3.841

const (
	// DefaultK is the result cap applied when a query leaves k unset.
	DefaultK = 10
	// MaxK bounds the result cap a query may request.
	MaxK = 1000
	// DefaultMinLift is the lift floor applied when a query leaves
	// min_lift unset: lift > 1 means positive association, so the default
	// keeps exactly the positively associated candidates.
	DefaultMinLift = 1.0
)

// Query is one parsed /correlate request.
type Query struct {
	// Anchor is the anchor token (an annotation or a data value).
	Anchor string
	// K caps the result count (DefaultK when the request left it unset).
	K int
	// MinLift is the lift floor (DefaultMinLift when unset).
	MinLift float64
}

// ParseQuery validates the raw /correlate query parameters. anchor is
// required; k and minLift are the raw strings of the optional parameters
// ("" applies the default).
func ParseQuery(anchor, k, minLift string) (Query, error) {
	q := Query{Anchor: anchor, K: DefaultK, MinLift: DefaultMinLift}
	if anchor == "" {
		return Query{}, errors.New("correlate: anchor is required")
	}
	if k != "" {
		v, err := strconv.Atoi(k)
		if err != nil {
			return Query{}, fmt.Errorf("correlate: bad k %q: %w", k, err)
		}
		if v < 1 || v > MaxK {
			return Query{}, fmt.Errorf("correlate: k %d out of range [1, %d]", v, MaxK)
		}
		q.K = v
	}
	if minLift != "" {
		v, err := strconv.ParseFloat(minLift, 64)
		if err != nil {
			return Query{}, fmt.Errorf("correlate: bad min_lift %q: %w", minLift, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return Query{}, fmt.Errorf("correlate: min_lift %v must be a finite non-negative number", v)
		}
		q.MinLift = v
	}
	return q, nil
}

// Result is one ranked candidate annotation.
type Result struct {
	// Token is the candidate annotation's dictionary token; Family its
	// annotation family (relation.FamilyOf).
	Token  string `json:"token"`
	Family string `json:"family"`
	// Count is the anchor∧candidate co-occurrence count; Frequency the
	// candidate's own occurrence count in the generation.
	Count     int `json:"count"`
	Frequency int `json:"frequency"`
	// Confidence is Count / anchor count; Lift is the observed-over-
	// expected co-occurrence ratio (> 1 means positive association).
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
	// ChiSquare and PValue are the independence-test statistics (one
	// degree of freedom) the significance filter cut on.
	ChiSquare float64 `json:"chi_square"`
	PValue    float64 `json:"p_value"`
}

// Answer is the response to one anchor query.
type Answer struct {
	// Anchor echoes the anchor token; AnchorCount is its occurrence count
	// in the generation; N the generation's tuple count.
	Anchor      string `json:"anchor"`
	AnchorCount int    `json:"anchor_count"`
	N           int    `json:"n"`
	// Results are the significance-filtered top-K candidates, ranked by
	// confidence then lift (descending), token ascending on ties.
	Results []Result `json:"results"`
}

// Index is an anchor-query handle on one frozen View generation; building
// one costs O(1). Everything a query needs — the anchor's postings, each
// candidate's co-occurrence count and frequency, N — is counted straight from
// the View's bitmaps (View.EachCooccurrence), so a query holds no state of
// its own and an Index is safe for concurrent queries.
type Index struct {
	view *relation.View
}

// NewIndex returns the query handle of view.
func NewIndex(view *relation.View) *Index { return &Index{view: view} }

// View returns the frozen generation the index answers for.
func (idx *Index) View() *relation.View { return idx.view }

// resolveAnchor resolves an anchor token in this generation to its postings
// and counts its positions below n, or returns ErrUnknownAnchor when there
// are none.
func (idx *Index) resolveAnchor(token string, n int) (relation.Postings, int, error) {
	it, ok := idx.view.Dictionary().Lookup(token)
	if !ok {
		return relation.Postings{}, 0, ErrUnknownAnchor
	}
	anc := idx.view.Postings(it)
	count := anc.CountBelow(n)
	if count == 0 {
		return relation.Postings{}, 0, ErrUnknownAnchor
	}
	return anc, count, nil
}

// score computes the association statistics of one candidate against the
// anchor: co co-occurrences, anchor frequency freqA, candidate frequency
// freqC, over n tuples. The chi-square statistic is the standard 2×2
// contingency form N(ad−bc)²/((a+b)(c+d)(a+c)(b+d)); its p-value at one
// degree of freedom is erfc(√(χ²/2)).
func score(co, freqA, freqC, n int) (confidence, lift, chi2, p float64) {
	confidence = float64(co) / float64(freqA)
	lift = float64(co) * float64(n) / (float64(freqA) * float64(freqC))
	a := float64(co)
	b := float64(freqA - co)
	c := float64(freqC - co)
	d := float64(n - freqA - freqC + co)
	denom := (a + b) * (c + d) * (a + c) * (b + d)
	if denom <= 0 {
		// A degenerate margin (anchor or candidate in every tuple, or in
		// none) carries no independence information; treat it as maximally
		// dependent so ubiquity alone never hides a perfect association. The
		// statistic is the largest finite float rather than +Inf, which JSON
		// cannot carry: a Result encodes as it is, and the value is still
		// unmistakably beyond any cutoff.
		chi2 = math.MaxFloat64
		p = 0
		return
	}
	chi2 = float64(n) * (a*d - b*c) * (a*d - b*c) / denom
	p = math.Erfc(math.Sqrt(chi2 / 2))
	return
}

// rank sorts results by confidence descending, lift descending, token
// ascending, and truncates to k. An empty answer is always the empty
// non-nil slice, whatever the caller accumulated into, so answers compare
// with reflect.DeepEqual and encode as [] rather than null.
func rank(results []Result, k int) []Result {
	if len(results) == 0 {
		return []Result{}
	}
	slices.SortFunc(results, func(a, b Result) int {
		if c := cmp.Compare(b.Confidence, a.Confidence); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Lift, a.Lift); c != 0 {
			return c
		}
		return strings.Compare(a.Token, b.Token)
	})
	if len(results) > k {
		results = results[:k]
	}
	return results
}

// TopK answers an anchor query from this index: candidates are every
// annotation co-occurring with the anchor, scored from the frozen
// frequency and co-occurrence counts, significance-filtered, and ranked.
func (idx *Index) TopK(q Query) (Answer, error) {
	n := idx.view.Len()
	anc, freqA, err := idx.resolveAnchor(q.Anchor, n)
	if err != nil {
		return Answer{}, err
	}
	return Answer{
		Anchor:      q.Anchor,
		AnchorCount: freqA,
		N:           n,
		Results:     rank(idx.candidates(nil, anc, freqA, n, q), q.K),
	}, nil
}

// candidates appends to results every annotation of this index's view that
// co-occurs with the anchor below n and passes the significance and lift
// filters, scored from one AND-popcount per candidate.
func (idx *Index) candidates(results []Result, anc relation.Postings, freqA, n int, q Query) []Result {
	dict := idx.view.Dictionary()
	idx.view.EachCooccurrence(anc, n, func(cand itemset.Item, co, freqC int) {
		token := dict.Token(cand)
		if token == q.Anchor {
			return
		}
		if r, ok := scoreCandidate(token, co, freqA, freqC, n, q.MinLift); ok {
			results = append(results, r)
		}
	})
	return results
}

// scoreCandidate scores one candidate and applies the significance and
// lift filters; ok reports whether it passed.
func scoreCandidate(token string, co, freqA, freqC, n int, minLift float64) (r Result, ok bool) {
	confidence, lift, chi2, p := score(co, freqA, freqC, n)
	if chi2 < ChiSquareCutoff || lift < minLift {
		return Result{}, false
	}
	return Result{
		Token:      token,
		Family:     relation.FamilyOf(token),
		Count:      co,
		Frequency:  freqC,
		Confidence: confidence,
		Lift:       lift,
		ChiSquare:  chi2,
		PValue:     p,
	}, true
}

// TopKMerged answers an anchor query across per-shard indexes, merging at
// the generations the indexes were captured at. The sharded store keeps
// every tuple's data values on every shard in identical positions while
// each annotation family lives on exactly one shard, so the merge is
// position-aligned: the anchor's postings resolve on whichever shard knows
// the token, every shard ANDs them with its own annotations' bitmaps, and
// every count — the anchor's, each candidate's and each co-occurrence — is
// cut at the shortest shard's tuple count, even where that count falls
// inside a bitmap word, so the statistics describe one consistent prefix.
func TopKMerged(idxs []*Index, q Query) (Answer, error) {
	if len(idxs) == 1 {
		return idxs[0].TopK(q)
	}
	if len(idxs) == 0 {
		return Answer{}, ErrUnknownAnchor
	}
	minN := idxs[0].view.Len()
	for _, idx := range idxs[1:] {
		minN = min(minN, idx.view.Len())
	}
	var anc relation.Postings
	freqA := 0
	for _, idx := range idxs {
		if a, n, err := idx.resolveAnchor(q.Anchor, minN); err == nil {
			anc, freqA = a, n
			break
		}
	}
	if freqA == 0 {
		return Answer{}, ErrUnknownAnchor
	}
	var results []Result
	for _, idx := range idxs {
		results = idx.candidates(results, anc, freqA, minN, q)
	}
	return Answer{
		Anchor:      q.Anchor,
		AnchorCount: freqA,
		N:           minN,
		Results:     rank(results, q.K),
	}, nil
}

// BruteForce answers an anchor query by O(N·M) recomputation — a full scan
// per candidate annotation, using no postings. It exists as the equivalence
// oracle for the bitmap path.
func BruteForce(view *relation.View, q Query) (Answer, error) {
	dict := view.Dictionary()
	anchorItem, ok := dict.Lookup(q.Anchor)
	if !ok {
		return Answer{}, ErrUnknownAnchor
	}
	contains := func(t relation.Tuple, it itemset.Item) bool {
		if it.IsData() {
			return t.Data.Contains(it)
		}
		return t.Annots.Contains(it)
	}
	freqA := 0
	view.Each(func(_ int, t relation.Tuple) bool {
		if contains(t, anchorItem) {
			freqA++
		}
		return true
	})
	if freqA == 0 {
		return Answer{}, ErrUnknownAnchor
	}
	n := view.Len()
	var results []Result
	for _, cand := range view.Annotations() {
		token := dict.Token(cand)
		if token == q.Anchor {
			continue
		}
		co, freqC := 0, 0
		view.Each(func(_ int, t relation.Tuple) bool {
			hasCand := t.Annots.Contains(cand)
			if hasCand {
				freqC++
			}
			if hasCand && contains(t, anchorItem) {
				co++
			}
			return true
		})
		if co == 0 {
			continue
		}
		if r, ok := scoreCandidate(token, co, freqA, freqC, n, q.MinLift); ok {
			results = append(results, r)
		}
	}
	return Answer{
		Anchor:      q.Anchor,
		AnchorCount: freqA,
		N:           n,
		Results:     rank(results, q.K),
	}, nil
}
