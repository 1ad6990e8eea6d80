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
// annotation inverted index and frequency table — so a query takes zero
// engine locks. An Index caches the one derived structure a View lacks (the
// data-value inverted index) and is itself cached per snapshot generation by
// Lazy, built on the first query and dropped wholesale at the next publish.
//
// Churn-anomaly detection (detector.go) watches the rule-churn event stream
// for per-family spikes against an EWMA baseline and publishes them back
// into the stream as churn_anomaly events, so anomaly history rides the same
// durable, cursor-resumable machinery as rule churn itself.
package correlate

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

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

// Index is the per-generation correlate index over one frozen View: the
// data-value inverted index the relation itself does not maintain (the
// paper's §4.3 index covers annotations only). Everything else a query
// needs — annotation postings, frequencies, N — is served straight from
// the View. An Index is immutable after NewIndex and safe for concurrent
// queries.
type Index struct {
	view *relation.View
	n    int
	// dataPostings maps each data-value item to the ascending tuple
	// positions containing it, mirroring View.TuplesWith for annotations.
	dataPostings map[itemset.Item][]int
}

// NewIndex builds the index with one O(N) scan over the view.
func NewIndex(view *relation.View) *Index {
	idx := &Index{
		view:         view,
		n:            view.Len(),
		dataPostings: make(map[itemset.Item][]int),
	}
	view.Each(func(i int, t relation.Tuple) bool {
		for _, it := range t.Data {
			idx.dataPostings[it] = append(idx.dataPostings[it], i)
		}
		return true
	})
	return idx
}

// View returns the frozen generation the index was built over.
func (idx *Index) View() *relation.View { return idx.view }

// N returns the tuple count of the indexed generation.
func (idx *Index) N() int { return idx.n }

// anchorPostings resolves an anchor token to its ascending tuple positions
// in this generation, or ErrUnknownAnchor.
func (idx *Index) anchorPostings(token string) ([]int, error) {
	it, ok := idx.view.Dictionary().Lookup(token)
	if !ok {
		return nil, ErrUnknownAnchor
	}
	if it.IsData() {
		if p := idx.dataPostings[it]; len(p) > 0 {
			return p, nil
		}
		return nil, ErrUnknownAnchor
	}
	if p := idx.view.TuplesWith(it); len(p) > 0 {
		return p, nil
	}
	return nil, ErrUnknownAnchor
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
	sort.Slice(results, func(i, j int) bool {
		if results[i].Confidence != results[j].Confidence {
			return results[i].Confidence > results[j].Confidence
		}
		if results[i].Lift != results[j].Lift {
			return results[i].Lift > results[j].Lift
		}
		return results[i].Token < results[j].Token
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
	postings, err := idx.anchorPostings(q.Anchor)
	if err != nil {
		return Answer{}, err
	}
	counts := make(map[itemset.Item]int)
	for _, p := range postings {
		t, terr := idx.view.Tuple(p)
		if terr != nil {
			return Answer{}, terr
		}
		for _, a := range t.Annots {
			counts[a]++
		}
	}
	dict := idx.view.Dictionary()
	results := make([]Result, 0, len(counts))
	for cand, co := range counts {
		token := dict.Token(cand)
		if token == q.Anchor {
			continue
		}
		results = append(results, scoreCandidate(token, co, len(postings), idx.view.Frequency(cand), idx.n, q.MinLift)...)
	}
	return Answer{
		Anchor:      q.Anchor,
		AnchorCount: len(postings),
		N:           idx.n,
		Results:     rank(results, q.K),
	}, nil
}

// scoreCandidate scores one candidate and applies the significance and
// lift filters, returning zero or one results.
func scoreCandidate(token string, co, freqA, freqC, n int, minLift float64) []Result {
	confidence, lift, chi2, p := score(co, freqA, freqC, n)
	if chi2 < ChiSquareCutoff || lift < minLift {
		return nil
	}
	return []Result{{
		Token:      token,
		Family:     relation.FamilyOf(token),
		Count:      co,
		Frequency:  freqC,
		Confidence: confidence,
		Lift:       lift,
		ChiSquare:  chi2,
		PValue:     p,
	}}
}

// clampBelow returns the prefix of ascending positions strictly below n.
func clampBelow(postings []int, n int) []int {
	i := sort.SearchInts(postings, n)
	return postings[:i]
}

// TopKMerged answers an anchor query across per-shard indexes, merging at
// the generations the indexes were captured at. The sharded store keeps
// every tuple's data values on every shard in identical positions while
// each annotation family lives on exactly one shard, so the merge is
// position-aligned: the anchor's postings resolve on whichever shard knows
// the token, every shard counts its own annotations along those positions,
// and all counts are clamped to the shortest shard's tuple count so the
// statistics describe one consistent prefix.
func TopKMerged(idxs []*Index, q Query) (Answer, error) {
	if len(idxs) == 1 {
		return idxs[0].TopK(q)
	}
	if len(idxs) == 0 {
		return Answer{}, ErrUnknownAnchor
	}
	minN := idxs[0].n
	for _, idx := range idxs[1:] {
		if idx.n < minN {
			minN = idx.n
		}
	}
	var postings []int
	for _, idx := range idxs {
		p, err := idx.anchorPostings(q.Anchor)
		if err != nil {
			continue
		}
		if p = clampBelow(p, minN); len(p) > 0 {
			postings = p
			break
		}
	}
	if len(postings) == 0 {
		return Answer{}, ErrUnknownAnchor
	}
	var results []Result
	for _, idx := range idxs {
		counts := make(map[itemset.Item]int)
		for _, p := range postings {
			t, terr := idx.view.Tuple(p)
			if terr != nil {
				return Answer{}, terr
			}
			for _, a := range t.Annots {
				counts[a]++
			}
		}
		dict := idx.view.Dictionary()
		for cand, co := range counts {
			token := dict.Token(cand)
			if token == q.Anchor {
				continue
			}
			freqC := len(clampBelow(idx.view.TuplesWith(cand), minN))
			results = append(results, scoreCandidate(token, co, len(postings), freqC, minN, q.MinLift)...)
		}
	}
	return Answer{
		Anchor:      q.Anchor,
		AnchorCount: len(postings),
		N:           minN,
		Results:     rank(results, q.K),
	}, nil
}

// BruteForce answers an anchor query by O(N·M) recomputation — a full scan
// per candidate annotation, using no derived structure. It exists as the
// equivalence oracle for the cached-index path.
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
		results = append(results, scoreCandidate(token, co, freqA, freqC, n, q.MinLift)...)
	}
	return Answer{
		Anchor:      q.Anchor,
		AnchorCount: freqA,
		N:           n,
		Results:     rank(results, q.K),
	}, nil
}
