package annotadb

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"annotadb/internal/stream"
	"annotadb/internal/wal"
)

// Event kinds delivered by Server.Subscribe and GET /events, matching the
// wire spellings of the SSE event: field. Promotions and demotions are
// valid-tier events (they describe the served rule set); candidate-tier
// events describe the near-miss pool.
const (
	EventRuleAdded         = "rule_added"
	EventRulePromoted      = "rule_promoted"
	EventRuleDemoted       = "rule_demoted"
	EventRuleRetired       = "rule_retired"
	EventConfidenceChanged = "confidence_changed"
	// EventChurnAnomaly: a family's rule churn spiked above its EWMA
	// baseline (see CorrelateOptions.Anomalies). The event carries the
	// spiking family plus WindowMillis, Count, Baseline, and Related
	// instead of a rule.
	EventChurnAnomaly = "churn_anomaly"
	// EventGap is synthetic: the subscriber's position fell out of retained
	// history (a slow consumer, or a resume older than the retention policy
	// keeps). From and To bound the missed cursors; delivery then continues
	// from the oldest retained event.
	EventGap = "gap"
)

// Rule tiers in events and subscription filters.
const (
	TierValid     = "valid"
	TierCandidate = "candidate"
)

// RuleCounts is one side of a rule's count change inside an Event: the raw
// PatternCount, LHSCount and N, with the derived Support and Confidence
// precomputed for display.
type RuleCounts = stream.RuleStat

// Event is one rule-churn observation: the serving writer diffs every
// published snapshot against its predecessor (per tier) and streams the
// transitions. Events are totally ordered by Cursor — dense, strictly
// increasing, durable across restarts on a durable server — which is the
// resume token (SSE Last-Event-ID). The struct is the stream's own event
// type: it is what the durable event log stores and, encoded by its JSON
// tags, the data: payload of a GET /events frame.
//
// Fields: Cursor is the event's position in the stream (0 for synthetic gap
// events, which exist per subscriber, not in the stream). Seq is the
// snapshot generation the event was diffed at (the sum of SeqVector on a
// sharded server); it restarts with the process, Cursor does not. SeqVector
// is the merged per-shard generation vector as of this event (nil
// unsharded), monotone along the stream. Shard is the shard whose publish
// emitted the event (0 unsharded). Kind and Tier classify the transition —
// string-typed, compare them with the Event* and Tier* constants. Family is
// the annotation family of the rule's RHS, the filter and sharding unit. LHS
// and RHS are the rule's tokens. Old and New are the rule's counts before
// and after the generation boundary; added events have no Old, retired
// events no New. From and To bound a gap event's missed cursor range
// (inclusive). WindowMillis, Count, Baseline and Related are the
// churn_anomaly payload: the detection window, the family's churn-event
// count in it, the EWMA baseline it spiked against, and the co-churned
// families of the same window ranked by churn count.
//
// One Event value is shared by every subscriber (its slices and its Old and
// New sides included): treat it as read-only.
type Event = stream.Event

// SubscribeOptions position and filter one churn subscription.
type SubscribeOptions struct {
	// FromSeq is the first event cursor wanted (inclusive; cursors start at
	// 1). 0 subscribes live — only events published after the call. To
	// resume after seeing cursor c, pass c+1 (SSE's Last-Event-ID + 1). A
	// cursor older than retention delivers one gap event, then continues
	// from the oldest retained event.
	FromSeq uint64
	// Families keeps only events whose Family is listed (nil keeps all).
	Families []string
	// Kinds keeps only the listed event kinds (nil keeps all); gap events
	// are always delivered.
	Kinds []string
	// Tier keeps only one tier's events ("" keeps both).
	Tier string
	// Buffer is the delivery channel's capacity (0 = 64). Together with the
	// server's ring it is the slack a slow consumer has before a gap.
	Buffer int
}

// StreamOptions tune the churn-event stream inside ServeOptions.
type StreamOptions struct {
	// Disabled turns the stream off: no diffing at publish time, and
	// Subscribe and GET /events fail.
	Disabled bool
	// Ring is the in-memory event ring capacity (0 = 1024). On an
	// in-memory server the ring is the whole retained history.
	Ring int
	// SegmentBytes rotates the durable event log's active segment at this
	// size (0 = 1 MiB). Durable servers only.
	SegmentBytes int64
	// RetainSegments is how many sealed event segments are retained after a
	// rotation (0 = 8, negative retains everything). Sealed segments beyond
	// it are deleted; cursors inside them become a gap on resume. The
	// durable event log flushes under DurabilityOptions.FlushWindow.
	RetainSegments int
}

// ErrStreamDisabled is returned by Subscribe when the server was built with
// StreamOptions.Disabled.
var ErrStreamDisabled = fmt.Errorf("annotadb: event stream disabled (ServeOptions.Stream.Disabled)")

// newStream builds the broker (and, when dir is non-empty, the durable
// event segment log under dir/events, flushed under the durable store's
// window) for a server with the given shard count. Returns a nil broker
// when streaming is disabled.
func newStream(opts StreamOptions, dir string, flush time.Duration, shards int) (*stream.Broker, *wal.SegmentedLog, error) {
	if opts.Disabled {
		return nil, nil, nil
	}
	var log *wal.SegmentedLog
	if dir != "" {
		var err error
		log, err = wal.OpenSegmented(wal.SegmentedOptions{
			Dir:            filepath.Join(dir, "events"),
			Prefix:         "events",
			SegmentBytes:   opts.SegmentBytes,
			RetainSegments: opts.RetainSegments,
			FlushWindow:    flush,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("annotadb: open event log: %w", err)
		}
	}
	bopts := stream.Options{Ring: opts.Ring, Shards: shards}
	if log != nil {
		bopts.Log = log // assign only when concrete: a typed-nil Log would pass != nil checks
	}
	b := stream.NewBroker(bopts)
	return b, log, nil
}

// Subscribe starts a rule-churn subscription: every snapshot the writer
// publishes is diffed against its predecessor, and the matching transitions
// arrive on the returned channel in cursor order. The channel closes when
// ctx is done or the server closes (after delivering what was already
// published). Delivery never blocks the write path: a consumer that falls
// out of retained history receives a gap event and continues from the
// oldest retained cursor. On a durable server cursors survive a clean
// restart, so a client may resume across it exactly as across a disconnect.
func (s *Server) Subscribe(ctx context.Context, opts SubscribeOptions) (<-chan Event, error) {
	if s.stream == nil {
		return nil, ErrStreamDisabled
	}
	if opts.Tier != "" && !stream.ValidTier(stream.Tier(opts.Tier)) {
		return nil, fmt.Errorf("annotadb: unknown tier %q (want %q or %q)", opts.Tier, TierValid, TierCandidate)
	}
	kinds := make([]stream.Kind, 0, len(opts.Kinds))
	for _, k := range opts.Kinds {
		sk := stream.Kind(k)
		if !stream.ValidKind(sk) || sk == stream.KindGap {
			return nil, fmt.Errorf("annotadb: unknown event kind %q", k)
		}
		kinds = append(kinds, sk)
	}
	sub, err := s.stream.Subscribe(ctx, stream.SubscribeOptions{
		From:     opts.FromSeq,
		Families: opts.Families,
		Kinds:    kinds,
		Tier:     stream.Tier(opts.Tier),
		Buffer:   opts.Buffer,
	})
	if err != nil {
		return nil, err
	}
	return sub.Events, nil
}

// StreamStats reports churn-stream activity; see Server.StreamStats.
// EventsPublished counts events appended since the server started and
// PerShard breaks them down by emitting shard (nil when unsharded);
// Subscribers is the number of live subscriptions and GapEvents counts
// synthetic gaps delivered to consumers that fell behind retention;
// FirstCursor and NextCursor bound the retained history; LogErrors counts
// events the durable event log could not append (still served from the
// ring).
type StreamStats = stream.Stats

// StreamStats returns current churn-stream counters: all zero when the
// stream was disabled at construction.
func (s *Server) StreamStats() StreamStats {
	if s.stream == nil {
		return StreamStats{}
	}
	return s.stream.Stats()
}

// Health reports whether the server can still accept writes: nil while
// healthy, or the latched failure when the shard router latched a replica
// divergence (ErrReplicasDiverged) or the durable store latched an
// unrecoverable log failure (an append fsync or post-checkpoint truncation
// error). A latched server still serves reads from its published
// snapshots; restart it to recover. Transports surface this as a degraded
// health probe so load balancers stop routing writes here.
func (s *Server) Health() error {
	r, _ := s.serving()
	if err := r.Err(); err != nil {
		return err
	}
	if err := r.JournalErr(); err != nil {
		return fmt.Errorf("annotadb: %w", err)
	}
	if s.cluster != nil {
		if err := s.cluster.Failed(); err != nil {
			return fmt.Errorf("annotadb: durable store failed (restart to recover): %w", err)
		}
	}
	return nil
}
