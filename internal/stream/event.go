// Package stream turns rule churn into a durable, cursor-resumable event
// feed: at every snapshot publish the serving writer diffs the outgoing and
// incoming rule tiers into typed events (rule_added, rule_promoted,
// rule_demoted, rule_retired, confidence_changed), and a Broker fans them
// out to subscribers through a bounded in-memory ring backed, optionally,
// by the wal package's rotated segment log — so a subscriber can resume
// from any retained cursor after a disconnect or a clean server restart,
// and a slow subscriber is handed a gap event instead of ever blocking the
// writer.
//
// The paper's whole point is that correlation rules evolve as annotations
// arrive; this package is where readers observe the derivative of the mined
// state rather than the state itself.
package stream

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"annotadb/internal/rules"
)

// Kind classifies a churn event. The values are the wire spellings used by
// the JSON encoding and the SSE event: field.
type Kind string

const (
	// KindAdded: the rule entered the tier with no prior presence in either
	// tier (discovered straight into it).
	KindAdded Kind = "rule_added"
	// KindPromoted: the rule crossed from the candidate tier into the valid
	// tier. Always stamped TierValid.
	KindPromoted Kind = "rule_promoted"
	// KindDemoted: the rule fell from the valid tier into the candidate
	// tier. Always stamped TierValid.
	KindDemoted Kind = "rule_demoted"
	// KindRetired: the rule left the tier and is tracked by neither tier
	// afterwards.
	KindRetired Kind = "rule_retired"
	// KindConfidenceChanged: the rule stayed in its tier but its confidence
	// counts (pattern count or LHS count) changed.
	KindConfidenceChanged Kind = "confidence_changed"
	// KindChurnAnomaly: a family's rule churn spiked above its EWMA
	// baseline (the correlate package's detector). It carries the spiking
	// family, the window's count and baseline, and the co-churned families
	// observed in the same window, instead of a rule.
	KindChurnAnomaly Kind = "churn_anomaly"
	// KindGap is synthetic, delivered to a subscriber whose cursor fell
	// behind the retained history (a slow consumer overrun by the ring, or
	// a resume older than the retention policy keeps). It carries the missed
	// cursor range instead of a rule.
	KindGap Kind = "gap"
)

// ValidKind reports whether k is one of the wire kinds (gap included).
func ValidKind(k Kind) bool {
	switch k {
	case KindAdded, KindPromoted, KindDemoted, KindRetired, KindConfidenceChanged, KindChurnAnomaly, KindGap:
		return true
	}
	return false
}

// Tier names a rule tier in events and subscription filters.
type Tier string

const (
	// TierValid is the served rule set. Promotions and demotions are valid-
	// tier events: they describe membership changes of the rules readers see.
	TierValid Tier = "valid"
	// TierCandidate is the near-miss slack pool. Candidate-tier events
	// describe churn of rules hovering below the thresholds.
	TierCandidate Tier = "candidate"
)

// ValidTier reports whether t is a known tier name.
func ValidTier(t Tier) bool { return t == TierValid || t == TierCandidate }

// RuleStat is one side of a rule's count change: the raw integers (see the
// rules package) and the ratios derived from them, stored so the value
// encodes as the wire shows it. The ratios are filled when the event is
// diffed; DecodeEvent re-derives them, so an event log written before they
// were stored replays with the same values.
type RuleStat struct {
	PatternCount int `json:"pattern_count"`
	LHSCount     int `json:"lhs_count"`
	N            int `json:"n"`
	// Support is PatternCount / N and Confidence PatternCount / LHSCount (0
	// when the denominator is).
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
}

// newRuleStat captures one side of a rule's counts; nil stays nil.
func newRuleStat(r *rules.Rule) *RuleStat {
	if r == nil {
		return nil
	}
	s := &RuleStat{PatternCount: r.PatternCount, LHSCount: r.LHSCount, N: r.N}
	s.derive()
	return s
}

// derive fills the ratios from the counts, by the rules package's formulas.
func (s *RuleStat) derive() {
	if s == nil {
		return
	}
	r := rules.Rule{PatternCount: s.PatternCount, LHSCount: s.LHSCount, N: s.N}
	s.Support, s.Confidence = r.Support(), r.Confidence()
}

// Event is one rule-churn observation. Everything in it is immutable; the
// broker shares one value with every subscriber.
type Event struct {
	// Cursor is the event's position in the stream: dense, strictly
	// increasing from 1, durable across restarts when the broker is backed
	// by a segment log. Synthetic gap events carry Cursor 0 — they exist
	// per subscriber, not in the stream.
	Cursor uint64 `json:"cursor,omitempty"`
	// Seq is the snapshot generation the event was diffed at: the publish
	// sequence of the emitting serving core (unsharded), or the sum of
	// SeqVector (sharded). Seq restarts with the process; Cursor does not.
	Seq uint64 `json:"seq,omitempty"`
	// SeqVector is the merged per-shard generation vector as of this event,
	// stamped under the broker's append lock so it is monotone along the
	// stream. Nil for unsharded streams.
	SeqVector []uint64 `json:"seq_vector,omitempty"`
	// Shard is the shard whose publish emitted the event (0 unsharded).
	Shard int `json:"shard"`
	// Kind and Tier classify the event; see the Kind and Tier constants.
	Kind Kind `json:"kind"`
	Tier Tier `json:"tier,omitempty"`
	// Family is the annotation family of the rule's RHS (relation.FamilyOf)
	// — the sharding and subscription-filter unit.
	Family string `json:"family,omitempty"`
	// LHS and RHS are the rule's dictionary tokens.
	LHS []string `json:"lhs,omitempty"`
	RHS string   `json:"rhs,omitempty"`
	// Old and New carry the rule's counts before and after the generation
	// boundary. Added events have no Old; retired events have no New.
	Old *RuleStat `json:"old,omitempty"`
	New *RuleStat `json:"new,omitempty"`
	// From and To bound the missed cursor range of a gap event (inclusive).
	From uint64 `json:"from,omitempty"`
	To   uint64 `json:"to,omitempty"`
	// WindowMillis, Count, Baseline, and Related are the churn_anomaly
	// payload: the detection window, the family's churn-event count in it,
	// the EWMA baseline it spiked against, and the co-churned families of
	// the same window ranked by churn count ("what else changed").
	WindowMillis int64    `json:"window_ms,omitempty"`
	Count        uint64   `json:"count,omitempty"`
	Baseline     float64  `json:"baseline,omitempty"`
	Related      []string `json:"related,omitempty"`
}

// EncodeEvent renders the event as a segment-log payload (JSON, so retained
// history is inspectable with standard tools).
func EncodeEvent(ev Event) ([]byte, error) {
	raw, err := json.Marshal(ev)
	if err != nil {
		return nil, fmt.Errorf("stream: encode event: %w", err)
	}
	return raw, nil
}

// DecodeEvent parses a segment-log payload produced by EncodeEvent,
// validating the fields resume correctness depends on.
func DecodeEvent(payload []byte) (Event, error) {
	var ev Event
	if err := json.Unmarshal(payload, &ev); err != nil {
		return Event{}, fmt.Errorf("stream: decode event: %w", err)
	}
	if !ValidKind(ev.Kind) {
		return Event{}, fmt.Errorf("stream: decode event: unknown kind %q", ev.Kind)
	}
	if ev.Kind != KindGap {
		if ev.Cursor == 0 {
			return Event{}, fmt.Errorf("stream: decode event: missing cursor")
		}
		if ev.Tier != "" && !ValidTier(ev.Tier) {
			return Event{}, fmt.Errorf("stream: decode event: unknown tier %q", ev.Tier)
		}
	}
	// The counts are authoritative: logs written before the ratios were
	// stored carry none.
	ev.Old.derive()
	ev.New.derive()
	return ev, nil
}

// ParseCursor parses a decimal cursor (the SSE Last-Event-ID wire form).
func ParseCursor(s string) (uint64, error) {
	c, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stream: bad cursor %q: %w", s, err)
	}
	return c, nil
}
