package annotadb

import (
	"time"

	"annotadb/internal/correlate"
	"annotadb/internal/shard"
)

// ErrUnknownAnchor is returned by Server.Correlate for an anchor token with
// no occurrence in the queried generation — never seen by the dataset, or
// attached to no tuple the snapshot can see. Callers mapping it to a
// transport status should return 404 Not Found.
var ErrUnknownAnchor = correlate.ErrUnknownAnchor

// CorrelateOptions configure the churn-anomaly side of the correlation-
// discovery subsystem. Anchor queries need no configuration — they are
// always served.
type CorrelateOptions struct {
	// Anomalies starts the churn-anomaly detector: a subscriber of the
	// rule-churn event stream that tracks per-family churn rates against
	// an EWMA baseline and publishes churn_anomaly events back into the
	// stream. It requires the stream to be enabled.
	Anomalies bool
	// AnomalyWindow is the churn-counting period (0 = 5s).
	AnomalyWindow time.Duration
	// AnomalyThreshold is the spike multiplier over the EWMA baseline that
	// makes a window anomalous (0 = 4).
	AnomalyThreshold float64
}

// CorrelateResult is one ranked candidate of an anchor query: Token is the
// candidate annotation and Family its annotation family; Count is the
// anchor∧candidate co-occurrence count and Frequency the candidate's own
// occurrence count, both in the answering generation; Confidence is Count
// over the anchor's count and Lift the observed-over-expected co-occurrence
// ratio (> 1 means positive association); ChiSquare and PValue are the
// independence-test statistics (one degree of freedom) behind the
// significance filter. A degenerate 2×2 table (the anchor or the candidate
// covers every tuple) reports ChiSquare as math.MaxFloat64 — finite, so the
// struct encodes to JSON as is, and beyond any cutoff. A GET /correlate
// result entry is this struct encoded by its own JSON tags.
type CorrelateResult = correlate.Result

// CorrelateAnswer is the result of one anchor query: Anchor echoes the
// anchor token, AnchorCount is its occurrence count in the answering
// generation and N the generation's tuple count; Results are the
// significance-filtered top-K candidates, ranked by confidence then lift
// (descending), token ascending on ties — empty, never nil, when nothing
// passes.
type CorrelateAnswer = correlate.Answer

// Correlate answers an anchor query: the top-k annotations most strongly
// associated with the anchor token (an annotation or a data value), ranked
// by confidence and lift and filtered by a chi-square significance test,
// with candidates below minLift dropped. k <= 0 and minLift <= 0 apply the
// defaults (10 and 1.0). The whole answer comes from one published snapshot
// generation — identified by the returned ReadSeq — and from the inverted
// index each shard's relation view already holds, so the query takes zero
// engine locks, builds nothing and scans no tuple; the per-shard answers are
// merged at the returned seq vector. A follower answers from its replica
// snapshot and reports the replication watermark.
func (s *Server) Correlate(anchor string, k int, minLift float64) (CorrelateAnswer, ReadSeq, error) {
	q := correlate.Query{Anchor: anchor, K: k, MinLift: minLift}
	if q.K <= 0 {
		q.K = correlate.DefaultK
	}
	if q.MinLift <= 0 {
		q.MinLift = correlate.DefaultMinLift
	}
	r, mark := s.serving()
	snaps := r.Snapshots()
	idxs := make([]*correlate.Index, len(snaps))
	for i, sn := range snaps {
		idxs[i] = correlate.NewIndex(sn.Snap.View)
	}
	rs := s.readSeq(shard.Seqs(snaps), mark)
	ans, err := correlate.TopKMerged(idxs, q)
	return ans, rs, err
}

// CorrelateStats reports the correlation subsystem's activity.
type CorrelateStats struct {
	// Deprecated: IndexBuilds is always zero. Anchor queries read the
	// relation view's own postings and build no index.
	IndexBuilds uint64 `json:"-"`
	// Deprecated: CacheHits is always zero, for the same reason.
	CacheHits uint64 `json:"-"`
	// Anomalies counts churn_anomaly events emitted by the detector;
	// DetectorRunning reports whether one is running.
	Anomalies       uint64 `json:"anomalies"`
	DetectorRunning bool   `json:"detector_running"`
}

// CorrelateStats returns the correlation subsystem's counters.
func (s *Server) CorrelateStats() CorrelateStats {
	var cs CorrelateStats
	if s.detector != nil {
		cs.Anomalies = s.detector.Anomalies()
		cs.DetectorRunning = true
	}
	return cs
}
