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
// engine locks. An Index holds the one derived structure a View lacks, the
// data-value inverted index. Tuples are append-only and a tuple's data
// values never change, so that structure is purely append-only: it is built
// once per serving core, by the first query (Lazy.Get), and from then on the
// core's writer carries it from each generation to the next (Lazy.Next,
// Index.Extend) — shared as is across an annotation batch, grown by exactly
// the appended tuples' values across a tuple batch — so no query after the
// first scans the relation.
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
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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

// Index is the correlate index of one frozen View generation: the
// data-value inverted index the relation itself does not maintain (the
// paper's §4.3 index covers annotations only). Everything else a query
// needs — annotation postings, frequencies, N — is served straight from
// the View. An Index is immutable once handed out and safe for concurrent
// queries.
//
// Generations of one relation form a lineage of indexes that share posting
// arrays: Extend derives the next generation's index by appending the new
// tuples' positions past the lengths this one's slice headers record, so an
// older index only ever reads the [0:len) prefix it was built with — the
// persistence argument relation.View makes for its chunk spine. Appending in
// place is sound for one successor only; tail is the token that grants it.
// An Index references its own View and nothing of the generations before it.
type Index struct {
	view *relation.View
	n    int
	// dataPostings holds, at each data value's dense dictionary id, the
	// ascending tuple positions containing that value, the counterpart of
	// View.Postings for annotations. Ids never seen lie past its end.
	dataPostings [][]int
	// tail is shared by every index whose slice headers end where this
	// one's do (an Extend over an unchanged tuple count shares it); the
	// first Extend that appends claims it and gives its result a fresh one.
	tail *atomic.Bool
}

// NewIndex builds the index with one O(N) scan over the view.
func NewIndex(view *relation.View) *Index {
	return (&Index{view: view, tail: new(atomic.Bool)}).Extend(view)
}

// Extend returns the index of view, a later generation of the relation this
// index was built over, without rescanning what is already indexed. With the
// tuple count unchanged the postings are shared as they are and only the
// View is swapped; otherwise the slice headers are copied once and the
// positions of the tuples appended since are appended in place, O(appended)
// beyond that copy. idx itself is not modified and keeps answering for its
// own generation.
//
// The in-place append happens at most once per set of shared arrays: a
// second appending Extend from the same lengths (a fork of the lineage), and
// a view that is not a successor — shorter, or over another dictionary —
// get a full rebuild instead, never a write into arrays a sibling owns.
func (idx *Index) Extend(view *relation.View) *Index {
	switch {
	case view.Len() < idx.n, idx.n > 0 && view.Dictionary() != idx.view.Dictionary():
		return NewIndex(view) // not a successor
	case view.Len() == idx.n:
		return &Index{view: view, n: idx.n, dataPostings: idx.dataPostings, tail: idx.tail}
	case !idx.tail.CompareAndSwap(false, true):
		return NewIndex(view) // a fork: the arrays' one in-place append is taken
	}
	next := &Index{
		view:         view,
		n:            view.Len(),
		dataPostings: slices.Clone(idx.dataPostings),
		tail:         new(atomic.Bool),
	}
	view.EachFrom(idx.n, func(i int, t relation.Tuple) bool {
		for _, it := range t.Data {
			id := it.ID()
			if id >= len(next.dataPostings) {
				next.dataPostings = append(next.dataPostings, make([][]int, id+1-len(next.dataPostings))...)
			}
			next.dataPostings[id] = append(next.dataPostings[id], i)
		}
		return true
	})
	return next
}

// postings returns the ascending positions of data value it.
func (idx *Index) postings(it itemset.Item) []int {
	if id := it.ID(); id < len(idx.dataPostings) {
		return idx.dataPostings[id]
	}
	return nil
}

// View returns the frozen generation the index was built over.
func (idx *Index) View() *relation.View { return idx.view }

// N returns the tuple count of the indexed generation.
func (idx *Index) N() int { return idx.n }

// anchor is an anchor token's tuple positions in one generation, walked in
// place where they live: a data value's ascending position list from the
// index, or an annotation's bitmap from the view. No query copies them.
type anchor struct {
	list  []int
	bits  relation.Postings
	annot bool
}

// resolveAnchor resolves an anchor token in this generation and counts its
// positions below n, or returns ErrUnknownAnchor when there are none.
func (idx *Index) resolveAnchor(token string, n int) (anchor, int, error) {
	it, ok := idx.view.Dictionary().Lookup(token)
	if !ok {
		return anchor{}, 0, ErrUnknownAnchor
	}
	var a anchor
	count := 0
	if it.IsData() {
		a.list = idx.postings(it)
		count = sort.SearchInts(a.list, n)
	} else {
		a = anchor{bits: idx.view.Postings(it), annot: true}
		count = a.bits.CountBelow(n)
	}
	if count == 0 {
		return anchor{}, 0, ErrUnknownAnchor
	}
	return a, count, nil
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

// tally counts annotation co-occurrences along an anchor's postings. Raw and
// derived annotation ids are dense from 1 per kind (relation.Dictionary), so
// the counters are two flat slices indexed by id, grown on demand, plus the
// candidates in first-seen order — which is also what reset walks, so a
// query costs O(candidates), not O(dictionary), to clean up after. Ids mean
// something only within one dictionary: reset before counting another
// shard's tuples.
type tally struct {
	raw, derived []int
	seen         []itemset.Item
}

// tallies recycles tally buffers across queries; a pooled tally is reset.
var tallies = sync.Pool{New: func() any { return new(tally) }}

func borrowTally() *tally { return tallies.Get().(*tally) }

func (t *tally) release() {
	t.reset()
	tallies.Put(t)
}

func (t *tally) slot(a itemset.Item) *int {
	counts := &t.raw
	if a.IsDerived() {
		counts = &t.derived
	}
	id := a.ID()
	if id >= len(*counts) {
		*counts = append(*counts, make([]int, id+1-len(*counts))...)
	}
	return &(*counts)[id]
}

// count tallies the annotations of view's tuples at the anchor's positions
// below n. An n past the view's end means the index and the view disagree.
func (t *tally) count(view *relation.View, anc anchor, n int) error {
	if n > view.Len() {
		return fmt.Errorf("correlate: index covers %d tuples: %w: view has %d", n, relation.ErrTupleIndex, view.Len())
	}
	visit := func(p int) bool {
		if p >= n {
			return false
		}
		for _, a := range view.AnnotationsOf(p) {
			c := t.slot(a)
			if *c == 0 {
				t.seen = append(t.seen, a)
			}
			*c++
		}
		return true
	}
	if anc.annot {
		anc.bits.Each(visit)
		return nil
	}
	for _, p := range anc.list {
		if !visit(p) {
			break
		}
	}
	return nil
}

func (t *tally) reset() {
	for _, a := range t.seen {
		*t.slot(a) = 0
	}
	t.seen = t.seen[:0]
}

// TopK answers an anchor query from this index: candidates are every
// annotation co-occurring with the anchor, scored from the frozen
// frequency and co-occurrence counts, significance-filtered, and ranked.
func (idx *Index) TopK(q Query) (Answer, error) {
	anc, freqA, err := idx.resolveAnchor(q.Anchor, idx.n)
	if err != nil {
		return Answer{}, err
	}
	counts := borrowTally()
	defer counts.release()
	if err := counts.count(idx.view, anc, idx.n); err != nil {
		return Answer{}, err
	}
	dict := idx.view.Dictionary()
	results := make([]Result, 0, len(counts.seen))
	for _, cand := range counts.seen {
		token := dict.Token(cand)
		if token == q.Anchor {
			continue
		}
		if r, ok := scoreCandidate(token, *counts.slot(cand), freqA, idx.view.Frequency(cand), idx.n, q.MinLift); ok {
			results = append(results, r)
		}
	}
	return Answer{
		Anchor:      q.Anchor,
		AnchorCount: freqA,
		N:           idx.n,
		Results:     rank(results, q.K),
	}, nil
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
	var anc anchor
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
	counts := borrowTally()
	defer counts.release()
	var results []Result
	for _, idx := range idxs {
		counts.reset()
		if err := counts.count(idx.view, anc, minN); err != nil {
			return Answer{}, err
		}
		dict := idx.view.Dictionary()
		results = slices.Grow(results, len(counts.seen))
		for _, cand := range counts.seen {
			token := dict.Token(cand)
			if token == q.Anchor {
				continue
			}
			freqC := idx.view.Postings(cand).CountBelow(minN)
			if r, ok := scoreCandidate(token, *counts.slot(cand), freqA, freqC, minN, q.MinLift); ok {
				results = append(results, r)
			}
		}
	}
	return Answer{
		Anchor:      q.Anchor,
		AnchorCount: freqA,
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
