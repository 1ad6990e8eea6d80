package annotadb

import (
	"context"
	"errors"
	"net/http"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/replica"
	"annotadb/internal/serve"
	"annotadb/internal/shard"
)

// ErrFollower is returned by Server write methods on a read replica: the
// follower's state is a projection of the primary's log, so the only way to
// change it is to write to the primary. Transports should surface it with a
// pointer at the primary.
var ErrFollower = errors.New("annotadb: server is a read-only follower; route writes to the primary")

// ErrNotReplicable is returned by ReplicationSource on servers that cannot
// feed followers: only an unsharded durable server owns the single
// checkpoint + write-ahead log a follower bootstraps and tails from.
var ErrNotReplicable = errors.New("annotadb: replication requires an unsharded durable server")

// FollowOptions configure a read replica's connection to its primary.
type FollowOptions struct {
	// Primary is the primary's base URL (e.g. "http://primary:8080"); the
	// follower uses its /replication endpoints.
	Primary string
	// Client is the HTTP client for replication fetches (nil: default).
	Client *http.Client
	// Poll is the log tail interval while caught up (0: ~50ms).
	Poll time.Duration
	// MaxBackoff caps the jittered retry interval after fetch errors
	// (0: 5s).
	MaxBackoff time.Duration
	// ChunkBytes bounds one log page (0: the primary's default, 1 MiB).
	ChunkBytes int64
}

// ReplicationStats reports a follower's position relative to its primary;
// see ServerStats.Replication.
type ReplicationStats struct {
	// Primary is the primary's base URL.
	Primary string
	// RunID identifies the primary process run the watermark belongs to.
	RunID string
	// Epoch is the checkpoint generation the follower's world bootstrapped
	// from.
	Epoch uint64
	// Seq is the read-your-writes watermark: every primary write
	// acknowledged with seq ≤ Seq (during run RunID) is visible here.
	Seq uint64
	// Applied counts log records applied since the follower started.
	Applied uint64
	// Bootstraps counts checkpoint bootstraps (1 after a clean start);
	// Conflicts counts the epoch-change re-bootstrap triggers among them.
	Bootstraps uint64
	Conflicts  uint64
	// TailErrors counts transient tail failures (primary unreachable, …).
	TailErrors uint64
	// LagMillis is the wall-clock freshness estimate: milliseconds since
	// the follower last confirmed the primary's position (applied a frame,
	// or polled the log and found itself caught up). A caught-up idle
	// follower stays near its poll interval; a follower cut off from its
	// primary grows without bound — the number operators alarm on without
	// decoding seq deltas.
	LagMillis int64
}

// Follow starts a read replica of the primary named in fopts: it bootstraps
// from the primary's current checkpoint, tails its write-ahead log, and
// applies the records through a local one-shard router — so reads (Rules,
// Recommend*, Stats, Subscribe) serve from local immutable snapshots with
// bounded staleness, and writes fail with ErrFollower.
//
// opts must match the primary's mining configuration: the checkpoint's
// fingerprint is compared exactly as a local recovery would, and a mismatch
// fails the bootstrap. sopts tunes the local router and event stream;
// sopts.Shards must be 0 or 1 (only unsharded primaries replicate, and the
// follower mirrors their shape).
//
// Reads carry the primary's sequence as their watermark: a client that saw
// a write acknowledged at seq S can wait for it with WaitSeq (or a
// transport-level barrier) and then read its own write here. The follower
// is stateless — it keeps nothing on disk, and a restart is a fresh
// bootstrap.
func Follow(opts Options, sopts ServeOptions, fopts FollowOptions) (*Server, error) {
	if sopts.Shards > 1 {
		return nil, errors.New("annotadb: a follower serves unsharded; leave ServeOptions.Shards at 0")
	}
	cfg, err := opts.internal()
	if err != nil {
		return nil, err
	}
	broker, _, err := newStream(sopts.Stream, "", 1)
	if err != nil {
		return nil, err
	}
	f, err := replica.Start(replica.Options{
		Primary:    fopts.Primary,
		Client:     fopts.Client,
		Poll:       fopts.Poll,
		MaxBackoff: fopts.MaxBackoff,
		ChunkBytes: fopts.ChunkBytes,
		Config:     cfg,
		NewRouter: func(eng *incremental.Engine) (*shard.Router, error) {
			return shard.FromEngines([]*incremental.Engine{eng}, shard.Config{Serve: sopts.internal(), Stream: broker})
		},
	})
	if err != nil {
		if broker != nil {
			broker.Close() //nolint:errcheck
		}
		return nil, err
	}
	s := &Server{follower: f, stream: broker, retry: retryHint(sopts.BatchWindow, 0)}
	if err := s.startDetector(sopts.Correlate, f.Seq); err != nil {
		s.Close(context.Background()) //nolint:errcheck
		return nil, err
	}
	return s, nil
}

// Follower reports whether this server is a read replica.
func (s *Server) Follower() bool { return s.follower != nil }

// Replication returns the follower's replication status, or nil on a
// primary.
func (s *Server) Replication() *ReplicationStats {
	if s.follower == nil {
		return nil
	}
	st := s.follower.Stats()
	return &ReplicationStats{
		Primary:    st.Primary,
		RunID:      st.RunID,
		Epoch:      st.Epoch,
		Seq:        st.Seq,
		Applied:    st.Applied,
		Bootstraps: st.Bootstraps,
		Conflicts:  st.Conflicts,
		TailErrors: st.TailErrors,
		LagMillis:  st.Lag.Milliseconds(),
	}
}

// ReplicationSource returns the primary-side replication feed transports
// mount under /replication, or ErrNotReplicable when this server has no
// single durable log to serve (sharded, in-memory, or itself a follower).
// The source is created once per server; its run id identifies this process
// run to followers.
func (s *Server) ReplicationSource() (*replica.Source, error) {
	if s.replicaSrc == nil {
		return nil, ErrNotReplicable
	}
	return s.replicaSrc, nil
}

// WaitSeq blocks until reads from this server reflect every write
// acknowledged at or before seq, the context ends, or the server closes. On
// a primary that holds by construction (the writer publishes before it
// acks), so WaitSeq returns immediately; on a follower it waits for the
// replication watermark to reach seq. The barrier is meaningful for
// sequences obtained from this primary run's acks; after a primary restart
// the sequence space restarts and stale barriers resolve via ctx.
func (s *Server) WaitSeq(ctx context.Context, seq uint64) error {
	if s.follower != nil {
		return s.follower.WaitSeq(ctx, seq)
	}
	return nil
}

// RetryAfter is the backoff hint the server attaches to shed writes (HTTP
// 429 Retry-After): about two admission waits — the batch window plus the
// journal's group-commit linger — so retries from many clients spread
// proportionally to the actual pipeline latency instead of synchronizing on
// a fixed constant.
func (s *Server) RetryAfter() time.Duration { return s.retry }

// retryHint derives the shed-write backoff hint from the admission wait: a
// submission that was shed waited one batch window, and its retry must also
// ride out the group-commit linger of the batch ahead of it. Twice that,
// clamped to [5ms, 1s], keeps the hint proportional without suggesting
// sub-jitter sleeps or unbounded ones.
func retryHint(batchWindow, flushWindow time.Duration) time.Duration {
	if batchWindow == 0 {
		batchWindow = serve.DefaultBatchWindow
	}
	if batchWindow < 0 {
		batchWindow = 0
	}
	h := 2 * (batchWindow + flushWindow)
	if h < 5*time.Millisecond {
		h = 5 * time.Millisecond
	}
	if h > time.Second {
		h = time.Second
	}
	return h
}
