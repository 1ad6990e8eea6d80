// Package metrics provides a small, dependency-free latency histogram for
// the serving hot path: fixed-size, log-scaled buckets updated with a single
// atomic add per observation, so writers (and the commit pipeline behind
// them) can record per-stage latencies without locks, allocation, or
// sampling loss.
//
// The bucket layout follows the HDR-histogram idea in miniature: each
// observed duration lands in a bucket keyed by its magnitude (the bit length
// of its nanosecond count) refined by the two bits below the leading one, so
// relative error is bounded at ~25% across the full range from 1ns to
// hours. Quantiles are estimated by a cumulative walk over the frozen bucket
// counts and always report a bucket upper bound, never an interpolated
// value below a real observation.
//
// The zero value of every type is ready to use, and all methods are safe
// for concurrent use.
package metrics

import (
	"encoding/json"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers every non-negative int64 nanosecond duration: 4 linear
// buckets for 0–3ns plus 4 sub-buckets per power of two up to 2^63.
const numBuckets = 4 + 4*61

// Histogram is a fixed-size log-scale latency histogram. The zero value is
// ready to use; Observe is one atomic add per call (plus a CAS loop for the
// running maximum), and Summary may be called concurrently at any time.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

// bucketIndex maps a nanosecond count (>= 0) to its bucket.
func bucketIndex(v int64) int {
	if v < 4 {
		return int(v)
	}
	e := bits.Len64(uint64(v)) // >= 3
	sub := int(v>>(e-3)) & 3
	return 4*(e-2) + sub
}

// bucketUpper returns the largest nanosecond value mapping to bucket i —
// the conservative (never-underestimating) representative Summary reports.
func bucketUpper(i int) int64 {
	if i < 4 {
		return int64(i)
	}
	e := i/4 + 2
	sub := int64(i % 4)
	return (4+sub+1)<<(e-3) - 1
}

// Observe records one latency observation. Negative durations are clamped
// to zero (the clock stepped; the observation still counts).
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Summary is a point-in-time digest of a Histogram.
type Summary struct {
	// Count is the number of observations; every other field is zero when
	// it is.
	Count uint64
	// Mean is the arithmetic mean of all observations.
	Mean time.Duration
	// P50 and P99 are quantile estimates, accurate to the bucket width
	// (~25% relative) and never below the true quantile's bucket.
	P50 time.Duration
	P99 time.Duration
	// Max is the exact largest observation.
	Max time.Duration
}

// MarshalJSON renders the digest with its durations in seconds, the unit of
// every duration on /stats: count, mean_seconds, p50_seconds, p99_seconds
// and max_seconds.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Count       uint64  `json:"count"`
		MeanSeconds float64 `json:"mean_seconds"`
		P50Seconds  float64 `json:"p50_seconds"`
		P99Seconds  float64 `json:"p99_seconds"`
		MaxSeconds  float64 `json:"max_seconds"`
	}{s.Count, s.Mean.Seconds(), s.P50.Seconds(), s.P99.Seconds(), s.Max.Seconds()})
}

// Summary digests the histogram's current contents. Concurrent Observes
// land in the digest or not depending on timing; the digest itself is
// internally consistent enough for monitoring (quantile ranks are computed
// against the count of buckets actually walked).
func (h *Histogram) Summary() Summary {
	var counts [numBuckets]uint64
	var total uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	if total == 0 {
		return Summary{}
	}
	s := Summary{
		Count: total,
		Mean:  time.Duration(h.sum.Load() / int64(total)),
		Max:   time.Duration(h.max.Load()),
	}
	s.P50 = quantile(&counts, total, 50)
	s.P99 = quantile(&counts, total, 99)
	return s
}

// quantile returns the upper bound of the bucket holding the q-th
// percentile observation (rank = ceil(q/100 * total), 1-based).
func quantile(counts *[numBuckets]uint64, total uint64, q uint64) time.Duration {
	rank := (total*q + 99) / 100
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := range counts {
		seen += counts[i]
		if seen >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(bucketUpper(numBuckets - 1))
}
