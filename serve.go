package annotadb

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"annotadb/internal/correlate"
	"annotadb/internal/incremental"
	"annotadb/internal/metrics"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/replica"
	"annotadb/internal/serve"
	"annotadb/internal/shard"
	"annotadb/internal/storage"
	"annotadb/internal/stream"
	"annotadb/internal/wal"
)

// ErrServerClosed is returned by Server write methods after Close. Callers
// mapping it to a transport status should treat it as unavailability (the
// process is shutting down), not as a request defect.
var ErrServerClosed = serve.ErrClosed

// ErrJournal wraps write failures caused by the durable store's write-ahead
// log (e.g. a full disk). The batch was valid but was not applied; callers
// mapping it to a transport status should report a server-side failure, not
// a request defect, and the client may retry.
var ErrJournal = serve.ErrJournal

// ErrOverloaded is returned by Server write methods when the bounded
// admission queue stayed full for a whole batch window: the writer is not
// keeping up and the request was shed instead of queued. Callers mapping it
// to a transport status should return 429 Too Many Requests with a
// Retry-After hint; the write was NOT applied and may be retried.
var ErrOverloaded = serve.ErrOverloaded

// ServeOptions configure a Server's write coalescing, recommendation
// filtering, and sharding.
type ServeOptions struct {
	// BatchWindow is how long a write waits for a slot in a full admission
	// queue before it is shed with ErrOverloaded, and the base of the
	// Retry-After hint transports send with that refusal. Zero means the
	// serving default (1ms); negative sheds at once. The writer never waits
	// on it: updates already queued when it starts a maintenance pass
	// coalesce into that pass, and a lone update is applied at once.
	BatchWindow time.Duration
	// MaxBatch caps updates per coalesced maintenance pass (0 = default).
	MaxBatch int
	// QueueDepth bounds pending write requests (0 = default). The queue is
	// an admission control: a submission that finds it full waits at most
	// one batch window for a slot and is then shed with ErrOverloaded
	// instead of blocking indefinitely.
	QueueDepth int
	// Recommend filters the rules used to answer recommendation reads.
	Recommend RecommendOptions
	// Shards partitions the serving state by annotation family into this
	// many independent write paths (relation replica + engine + writer loop
	// per shard), so annotation batches for different families commit in
	// parallel. 0 or 1 serves unsharded. The family of an annotation token
	// is its prefix before the first ":" (or the whole token); see the
	// sharding section of ARCHITECTURE.md for the placement contract —
	// annotation-to-annotation correlations are discovered within a family.
	Shards int
	// Stream tunes the rule-churn event stream (Server.Subscribe and
	// GET /events): ring size, and — on a durable server — the event log's
	// segment rotation and retention. The zero value enables the stream
	// with defaults; set Stream.Disabled to turn it off.
	Stream StreamOptions
	// Correlate configures the correlation-discovery subsystem. Anchor
	// queries (Server.Correlate, GET /correlate) are always served — they
	// are pure snapshot reads whose per-generation index costs nothing
	// until the first query — so these options only govern the
	// churn-anomaly detector.
	Correlate CorrelateOptions
}

// Server serves rules and recommendations concurrently while annotations
// and tuples stream in. Reads (Rules, Recommend*, Stats) work against
// atomically published immutable snapshots and never block behind writes;
// writes are coalesced by single writer loops (one per shard) and
// acknowledged after the batch they rode in is applied and fresh snapshots
// are published.
//
// Every Server is a router over N >= 1 family shards; an unsharded server
// is the N = 1 case, and its public shape (scalar sequences, no per-shard
// sections) is the one-shard form of the same code path.
//
// NewServer takes ownership of the engine and its dataset: route every
// mutation through the Server and treat direct Engine/Dataset calls as
// read-only (their results may trail the serving snapshot by one batch).
// A sharded Server (ServeOptions.Shards > 1, or an engine opened with
// DurabilityOptions.Shards > 1) serves the merged view of its per-shard
// state; Dataset returns nil for it.
type Server struct {
	// ds is a one-shard primary's live dataset; nil when sharded and on a
	// follower (see Dataset).
	ds *Dataset
	// router is the primary's serving core: it fans writes out by annotation
	// family and merges reads. Nil on a follower, whose router belongs to its
	// current world (see serving).
	router *shard.Router
	// cluster is the durable backing store (nil for in-memory servers and
	// followers): the shard writers journal every batch to it, and Close
	// checkpoints and closes it. clusterClosed makes that final step run
	// exactly once.
	cluster       *shard.Cluster
	clusterClosed atomic.Bool

	// follower is non-nil on a read replica (see Follow): reads serve from
	// its current world, writes fail with ErrFollower. replicaSrc is the
	// primary-side replication feed (non-nil only on one-shard durable
	// servers). retry is the shed-write backoff hint (see RetryAfter).
	follower   *replica.Follower
	replicaSrc *replica.Source
	retry      time.Duration

	// stream is the rule-churn broker (nil when disabled); eventLog is its
	// durable segment log (nil for in-memory servers). Close closes both
	// after the writers have drained.
	stream   *stream.Broker
	eventLog *wal.SegmentedLog

	// detector is the churn-anomaly detector (nil unless
	// CorrelateOptions.Anomalies); closeStream stops it before sealing the
	// broker it both consumes and publishes to.
	detector *correlate.Detector

	// rendered memoizes the public rules of one generation, so that serving
	// GET /rules-style reads does not re-resolve dictionary tokens (each
	// behind a dictionary's lock) and re-sort for every request.
	rendered atomic.Pointer[renderedRules]
}

// renderedRules caches the public rules of one generation, keyed by the
// router that served it and the full per-shard sequence vector. The vector,
// not its sum, is the key — two concurrent readers can assemble different
// vectors with equal sums (the per-shard loads are not one atomic cut) — and
// the router tells a follower's worlds apart, whose sequences each restart
// from scratch.
type renderedRules struct {
	router *shard.Router
	seqs   []uint64
	rules  []Rule
}

// NewServer wraps an engine in a serving core and starts its writer loops.
// An engine from OpenDurable brings its durable store along: the writers
// journal every batch to the write-ahead log before applying it. With
// ServeOptions.Shards > 1 on an in-memory engine, the engine's dataset is
// partitioned by annotation family and each shard is mined and served
// independently (the engine itself is then no longer connected to the
// served state — route everything through the Server).
func NewServer(e *Engine, opts ServeOptions) (*Server, error) {
	engines := []*incremental.Engine{e.eng}
	switch {
	case e.cluster != nil:
		engines = e.cluster.Engines()
		if opts.Shards > 0 && opts.Shards != len(engines) {
			// Serving a durable engine through a different number of
			// in-memory shards would acknowledge writes that never reach
			// its WALs — silent data loss at the next open.
			return nil, fmt.Errorf("annotadb: ServeOptions.Shards = %d but the engine's durable store holds %d; reopen with DurabilityOptions.Shards instead", opts.Shards, len(engines))
		}
	case opts.Shards > 1:
		return newShardedInMemory(e.ds, e.eng.Config(), opts)
	}
	return newPrimary(e.ds, e.cluster, opts, len(engines), func(cfg shard.Config) (*shard.Router, error) {
		return shard.FromEngines(engines, cfg)
	})
}

// NewShardedServer partitions the dataset by annotation family into
// opts.Shards independent shards, mines each projection in parallel, and
// serves the merged view. It is the in-memory sharded entry point that
// skips the full unsharded bootstrap mine NewEngine would pay; the durable
// equivalent is OpenDurable with DurabilityOptions.Shards. With Shards 0 or
// 1 there is nothing to partition and the result is NewServer's over a
// fresh engine.
func NewShardedServer(d *Dataset, opts Options, sopts ServeOptions) (*Server, error) {
	if sopts.Shards <= 1 {
		e, err := NewEngine(d, opts)
		if err != nil {
			return nil, err
		}
		return NewServer(e, sopts)
	}
	cfg, err := opts.internal()
	if err != nil {
		return nil, err
	}
	return newShardedInMemory(d, cfg, sopts)
}

func newShardedInMemory(d *Dataset, cfg mining.Config, sopts ServeOptions) (*Server, error) {
	return newPrimary(nil, nil, sopts, sopts.Shards, func(rcfg shard.Config) (*shard.Router, error) {
		return shard.NewRouter(d.rel, func(rel *relation.Relation) (*incremental.Engine, error) {
			return incremental.New(rel, cfg, incremental.Options{})
		}, rcfg)
	})
}

// newPrimary assembles a writable server around the router build returns:
// the event stream (durable under the cluster's directory), the per-shard
// journals, the replication feed and the anomaly detector. ds is the live
// dataset of a one-shard server (nil otherwise), cluster its durable store
// (nil in memory).
func newPrimary(ds *Dataset, cluster *shard.Cluster, opts ServeOptions, shards int, build func(shard.Config) (*shard.Router, error)) (*Server, error) {
	cfg := shard.Config{Shards: shards, Serve: opts.internal()}
	dir := ""
	var flushWindow time.Duration
	if cluster != nil {
		cfg.Journals = cluster.Journals()
		dir = cluster.Dir()
		flushWindow = cluster.Stores()[0].FlushWindow() // one policy for every shard
	}
	broker, eventLog, err := newStream(opts.Stream, dir, shards)
	if err != nil {
		return nil, err
	}
	cfg.Stream = broker
	router, err := build(cfg)
	if err != nil {
		if broker != nil {
			broker.Close() //nolint:errcheck
		}
		return nil, err
	}
	s := &Server{
		ds:       ds,
		router:   router,
		stream:   broker,
		eventLog: eventLog,
		retry:    retryHint(opts.BatchWindow, flushWindow),
	}
	// seqFn stamps anomaly events with the serving generation. It stays nil
	// (stamping 0) on a sharded broker, whose seq vector only shard
	// publishers may advance.
	var seqFn func() uint64
	if shards == 1 {
		seqFn = func() uint64 { return router.Seqs()[0] }
		if cluster != nil {
			// A one-shard durable server owns the one checkpoint + log a
			// follower needs, so it is born replicable; the source's run id
			// identifies this process run to followers across restarts.
			if s.replicaSrc, err = replica.NewSource(cluster.Stores()[0], seqFn); err != nil {
				s.Close(context.Background()) //nolint:errcheck
				return nil, err
			}
		}
	}
	if err := s.startDetector(opts.Correlate, seqFn); err != nil {
		s.Close(context.Background()) //nolint:errcheck
		return nil, err
	}
	// Adopted last: a failed construction closes what it built (router,
	// stream, detector) and leaves the durable store to the engine's owner.
	s.cluster = cluster
	return s, nil
}

// startDetector starts the churn-anomaly detector when the options ask for
// one and the server has an event stream to watch. seqFn stamps emitted
// events with a serving generation; nil stamps 0.
func (s *Server) startDetector(opts CorrelateOptions, seqFn func() uint64) error {
	if !opts.Anomalies || s.stream == nil {
		return nil
	}
	d, err := correlate.StartDetector(s.stream, correlate.DetectorOptions{
		Window:    opts.AnomalyWindow,
		Threshold: opts.AnomalyThreshold,
	}, seqFn)
	if err != nil {
		return err
	}
	s.detector = d
	return nil
}

func (o ServeOptions) internal() serve.Config {
	return serve.Config{
		BatchWindow: o.BatchWindow,
		MaxBatch:    o.MaxBatch,
		QueueDepth:  o.QueueDepth,
		Recommend:   o.Recommend.internal(),
	}
}

// serving returns the router every read and write goes against — the
// primary's own, or the follower's current world's — and, on a follower, the
// replication watermark. The watermark is sampled before the router is
// loaded, so a snapshot read through the router can only be at or beyond
// the watermark's apply point; pass it to readSeq after the read.
func (s *Server) serving() (*shard.Router, uint64) {
	if s.follower != nil {
		mark := s.follower.Seq()
		return s.follower.World().Router, mark
	}
	return s.router, 0
}

// shapeSeq maps a per-shard sequence vector to the public generation
// identity. A one-shard vector is the unsharded shape: its single component
// is the scalar (a unique, strictly increasing generation id) and no vector
// is reported.
func shapeSeq(seqs []uint64) ReadSeq {
	rs := ReadSeq{Seq: seqSum(seqs)}
	if len(seqs) > 1 {
		rs.Shards = seqs
	}
	return rs
}

// publicShards is a shard count as the public API reports it: 0 for a
// one-shard (unsharded) server.
func publicShards(n int) int {
	if n > 1 {
		return n
	}
	return 0
}

// readSeq is the generation identity of a read answered at seqs. A
// follower's local sequences are meaningless to clients (they restart at
// every re-bootstrap), so it advertises the replication watermark serving
// sampled instead — the primary sequence whose acknowledged writes are all
// visible in the answer.
func (s *Server) readSeq(seqs []uint64, watermark uint64) ReadSeq {
	if s.follower != nil {
		return ReadSeq{Seq: watermark}
	}
	return shapeSeq(seqs)
}

// Shards returns the shard count: 1 for an unsharded server.
func (s *Server) Shards() int {
	r, _ := s.serving()
	return r.Shards()
}

// Sharded reports whether the server fans writes out over more than one
// family shard.
func (s *Server) Sharded() bool { return s.Shards() > 1 }

// Close drains queued updates and stops the writer loops, waiting up to ctx.
// A durable server then writes final checkpoints (so the next open replays
// nothing; skipped when the logs are already empty) and closes its store.
// Reads remain valid (and final) after Close; writes fail with an error.
// Close is idempotent: later calls return nil once the first completed.
func (s *Server) Close(ctx context.Context) error {
	var err error
	if s.follower != nil {
		// Stops the tail loop first (it is the world router's only writer),
		// then the router.
		err = s.follower.Close(ctx)
	} else {
		err = s.router.Close(ctx)
	}
	if err != nil {
		// On a drain timeout a writer may still be running; leave the store
		// to it — every applied batch is already in the synced log, so
		// recovery replays it. Only a clean drain may checkpoint.
		return err
	}
	if s.cluster != nil {
		if !s.clusterClosed.CompareAndSwap(false, true) {
			return nil
		}
		if ckErr := s.cluster.Checkpoint(); ckErr != nil {
			err = ckErr
		}
		if closeErr := s.cluster.Close(); closeErr != nil && err == nil {
			err = closeErr
		}
	}
	// The writers have drained: the event stream is complete, so the broker
	// can seal its segment log (subscribers finish draining and their
	// channels close).
	if streamErr := s.closeStream(); streamErr != nil && err == nil {
		err = streamErr
	}
	return err
}

// closeStream closes the churn broker (and its segment log), stopping the
// anomaly detector first — it both consumes from and publishes to the
// broker, so it must be gone before the broker seals. Idempotent; called
// only after the writer loops have drained.
func (s *Server) closeStream() error {
	if s.detector != nil {
		s.detector.Stop()
	}
	if s.stream == nil {
		return nil
	}
	return s.stream.Close()
}

// Dataset returns the served dataset (treat as read-only), or nil for a
// sharded server (its state lives in per-shard replicas with no merged
// live relation) and for a follower (its relation is rebuilt on every
// re-bootstrap; read through the serving methods instead).
func (s *Server) Dataset() *Dataset { return s.ds }

// Rules returns the current generation's valid rules — the disjoint union of
// the per-shard rule views at one sequence vector — ordered by kind, then
// LHS tokens, then RHS token, without taking any maintenance engine's lock.
// The slice is rendered once per generation and shared between callers;
// treat it as read-only.
func (s *Server) Rules() []Rule {
	// Load the vector first and only render on a cache miss: rendering walks
	// and re-sorts every shard's rules, which is the whole cost the memo
	// exists to avoid.
	r, _ := s.serving()
	snaps := r.Snapshots()
	seqs := shard.Seqs(snaps)
	if c := s.rendered.Load(); c != nil && c.router == r && slices.Equal(c.seqs, seqs) {
		return c.rules
	}
	out := shard.MergedRules(snaps)
	// Vectors are only partially ordered across concurrent readers, so there
	// is no "newer" to protect: last render wins, and any cached entry is
	// internally consistent with its own vector.
	s.rendered.Store(&renderedRules{router: r, seqs: seqs, rules: out})
	return out
}

// seqSum folds a per-shard sequence vector into an informational scalar.
// Each component is non-decreasing, so the sum is too — but concurrent
// readers can assemble different vectors with equal sums (the per-shard
// loads are not one atomic cut), so the sum is a staleness indicator, not
// a unique generation id; ReadSeq.Shards is authoritative.
func seqSum(seqs []uint64) uint64 {
	var sum uint64
	for _, s := range seqs {
		sum += s
	}
	return sum
}

// ReadSeq identifies the snapshot generation a read was answered from.
type ReadSeq struct {
	// Seq is the scalar form: the snapshot sequence for an unsharded server
	// (a unique, strictly increasing generation id), the replication
	// watermark for a follower, or the sum of the per-shard sequence vector
	// for a sharded server — a staleness indicator only, since concurrent
	// readers can observe different vectors with equal sums; Shards is the
	// authoritative generation identity there.
	Seq uint64
	// Shards is the per-shard sequence vector; nil for unsharded servers.
	Shards []uint64
}

// Recommend evaluates the snapshot's rules against the tuple at zero-based
// position idx. The tuple contents and the rules both come from the same
// published generation — identified by the returned sequence number — so
// the answer is snapshot-consistent: a tuple annotated after the snapshot
// was published is scored exactly as the snapshot's rules knew it. A tuple
// appended after the last publish reports ErrTupleIndex until the next
// batch publishes. See RecommendAt for the per-shard sequence vector of a
// sharded server.
func (s *Server) Recommend(idx int) ([]Recommendation, uint64, error) {
	recs, seq, err := s.RecommendAt(idx)
	return recs, seq.Seq, err
}

// RecommendAt behaves like Recommend but reports the full generation
// identity: each shard's rules are evaluated against that shard's own
// snapshot view of the tuple (per-shard consistency) and the vector says
// exactly which per-shard generations answered. Recommendations are ordered
// by annotation token, and RecommendOptions.Limit keeps a prefix of that
// order.
func (s *Server) RecommendAt(idx int) ([]Recommendation, ReadSeq, error) {
	r, mark := s.serving()
	recs, seqs, err := r.Recommend(idx)
	return recs, s.readSeq(seqs, mark), err
}

// RecommendForTuple evaluates a not-yet-inserted tuple against the
// snapshot's rules (the paper's insert-trigger exploitation). As a pure
// read it never grows any dictionary: tokens the dataset has never seen
// are ignored, which cannot change the outcome — an unknown token cannot
// appear in any rule's LHS or RHS.
func (s *Server) RecommendForTuple(spec TupleSpec) ([]Recommendation, error) {
	r, _ := s.serving()
	return r.RecommendIncoming(spec), nil
}

// write runs one mutation against the primary's router and stamps the
// report with the snapshot sequence current after the acknowledgement. The
// writers publish before they ack, so the sequence loaded here is at or
// beyond the one that made the write visible — the report's Seq/SeqVector
// are valid read-your-writes watermarks (see UpdateReport.Seq). A follower
// refuses every write: its state changes only through the primary's log.
func (s *Server) write(apply func(*shard.Router) (*incremental.Report, error)) (UpdateReport, error) {
	if s.follower != nil {
		return UpdateReport{}, ErrFollower
	}
	rep, err := apply(s.router)
	if err != nil {
		return UpdateReport{}, err
	}
	out := publicReport(rep)
	rs := shapeSeq(s.router.Seqs())
	out.Seq, out.SeqVector = rs.Seq, rs.Shards
	return out, nil
}

// AddAnnotations submits a Case 3 batch and waits until it is applied and
// visible in the snapshot. The report covers the whole coalesced batch the
// updates rode in, which may include other callers' updates. The batch is
// split by annotation family and the owning shards commit their sub-batches
// in parallel; batch atomicity is per shard.
//
// Indexes are validated before any token is interned, so a rejected batch
// cannot grow a dictionary (which would let bad requests leak permanent
// state).
func (s *Server) AddAnnotations(ctx context.Context, batch []AnnotationUpdate) (UpdateReport, error) {
	return s.write(func(r *shard.Router) (*incremental.Report, error) {
		return r.AddAnnotations(ctx, batch)
	})
}

// RemoveAnnotations submits an annotation-removal batch and waits until it
// is applied. Entries whose annotation is absent are skipped and reported.
func (s *Server) RemoveAnnotations(ctx context.Context, batch []AnnotationUpdate) (UpdateReport, error) {
	return s.write(func(r *shard.Router) (*incremental.Report, error) {
		return r.RemoveAnnotations(ctx, batch)
	})
}

// AddTuples submits a tuple batch and waits until it is applied. The batch
// takes the paper's Case 1 path when any tuple carries annotations and the
// cheaper Case 2 path when none do. It fans out to every shard: each replica
// receives every tuple's data values plus the annotations its families own,
// in the same order.
func (s *Server) AddTuples(ctx context.Context, batch []TupleSpec) (UpdateReport, error) {
	return s.write(func(r *shard.Router) (*incremental.Report, error) {
		return r.AddTuples(ctx, batch)
	})
}

// ApplyUpdateFile reads a Figure 14-format annotation batch and submits it.
// Like AddAnnotations, indexes are validated before tokens are interned.
func (s *Server) ApplyUpdateFile(ctx context.Context, r io.Reader) (UpdateReport, error) {
	return s.write(func(rt *shard.Router) (*incremental.Report, error) {
		lines, err := storage.ReadUpdateBatch(r, storage.Options{})
		if err != nil {
			return nil, err
		}
		n := rt.Len()
		batch := make([]AnnotationUpdate, len(lines))
		for i, u := range lines {
			if u.Index < 0 || u.Index >= n {
				return nil, fmt.Errorf("annotadb: update %d:%s: %w (relation has %d tuples)", u.Index+1, u.Token, relation.ErrTupleIndex, n)
			}
			batch[i] = AnnotationUpdate{Tuple: u.Index, Annotation: u.Token}
		}
		return rt.AddAnnotations(ctx, batch)
	})
}

// ShardServerStats is one shard's serving statistics inside ServerStats.
type ShardServerStats struct {
	// Shard is the shard index.
	Shard int
	// SnapshotSeq, Tuples, and RuleCount identify the shard's published
	// snapshot.
	SnapshotSeq uint64
	Tuples      int
	RuleCount   int
	// RelVersion and LiveRelVersion measure the shard's snapshot staleness
	// in replica mutations.
	RelVersion     uint64
	LiveRelVersion uint64
	// Attachments and DistinctAnnotations describe the shard's share of the
	// annotation load (its families only).
	Attachments         int
	DistinctAnnotations int
	// Requests, Batches, Coalesced, and Reads are the shard's serving
	// counters; Shed counts writes this shard refused with ErrOverloaded.
	Requests  uint64
	Batches   uint64
	Coalesced uint64
	Reads     uint64
	Shed      uint64
	// Remines counts the shard engine's full re-mine fallbacks.
	Remines int
}

// StageLatency is one write-pipeline stage's latency digest: observation
// count, mean, tail quantiles (bucket-resolution estimates, never below the
// true quantile's bucket), and the exact maximum.
type StageLatency struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// WriteLatencyStats breaks write latency down by pipeline stage: Queue is
// admission-to-apply wait, Apply the engine maintenance pass, Fsync the
// wait for the covering group-commit fsync (zero observations unless the
// journal group-commits), and Publish the snapshot publication. Sharded
// servers share one recorder across shards, so the digests are aggregates.
type WriteLatencyStats struct {
	Queue   StageLatency
	Apply   StageLatency
	Fsync   StageLatency
	Publish StageLatency
}

func stageLatency(s metrics.Summary) StageLatency {
	return StageLatency{Count: s.Count, Mean: s.Mean, P50: s.P50, P99: s.P99, Max: s.Max}
}

func writeLatencyStats(l serve.LatencyStats) WriteLatencyStats {
	return WriteLatencyStats{
		Queue:   stageLatency(l.Queue),
		Apply:   stageLatency(l.Apply),
		Fsync:   stageLatency(l.Fsync),
		Publish: stageLatency(l.Publish),
	}
}

// ServerStats reports serving activity and the published snapshot.
type ServerStats struct {
	// SnapshotSeq identifies the current snapshot: the publish sequence for
	// an unsharded server, the sum of the per-shard sequence vector for a
	// sharded one (a staleness indicator; SeqVector is the authoritative
	// generation identity).
	SnapshotSeq uint64
	// Tuples is the relation size the snapshot's rules refer to (for a
	// sharded server, the merged generation: the minimum per-shard
	// snapshot size).
	Tuples int
	// RuleCount is the number of valid rules in the snapshot (summed
	// across shards; per-shard rule sets are disjoint).
	RuleCount int
	// RelVersion is the relation mutation counter the snapshot was
	// published at; LiveRelVersion is the counter now. Their difference is
	// the snapshot's staleness in relation mutations (0 when idle). For a
	// sharded server both are summed across shards, so the difference is
	// the aggregate staleness.
	RelVersion     uint64
	LiveRelVersion uint64
	// Attachments and DistinctAnnotations describe the snapshot's relation
	// generation: total (tuple, annotation) pairs and annotations present
	// on at least one tuple. Both come from the frozen frequency tables, so
	// polling them never blocks any writer.
	Attachments         int
	DistinctAnnotations int
	// Requests, Batches, Coalesced, Reads are serving counters: write
	// requests accepted, engine applications after coalescing, requests
	// that shared an application, and snapshot reads served. Shed counts
	// writes refused with ErrOverloaded by the bounded admission queue
	// (not included in Requests).
	Requests  uint64
	Batches   uint64
	Coalesced uint64
	Reads     uint64
	Shed      uint64
	// Latency breaks accepted writes down by pipeline stage.
	Latency WriteLatencyStats
	// Remines counts fallbacks to a full re-mine over the server's life.
	Remines int
	// Shards is the shard count (0 for an unsharded server) and SeqVector
	// the per-shard snapshot sequence vector (nil when unsharded).
	Shards    int
	SeqVector []uint64
	// PerShard carries each shard's serving statistics (nil when
	// unsharded).
	PerShard []ShardServerStats
	// Replication is the follower's position relative to its primary (nil
	// on a primary). On a follower, SnapshotSeq above is the LOCAL apply
	// generation (it restarts at every re-bootstrap); Replication.Seq is
	// the primary-sequence watermark clients should reason about, and the
	// RelVersion/LiveRelVersion staleness measures the local apply loop,
	// not distance from the primary.
	Replication *ReplicationStats
}

// Stats returns current serving statistics.
func (s *Server) Stats() ServerStats {
	r, _ := s.serving()
	st := r.Stats()
	rs := shapeSeq(st.Seqs)
	out := ServerStats{
		Replication:         s.Replication(),
		SnapshotSeq:         rs.Seq,
		Tuples:              st.N,
		RuleCount:           st.RuleCount,
		Attachments:         st.Attachments,
		DistinctAnnotations: st.DistinctAnnotations,
		Requests:            st.Requests,
		Batches:             st.Batches,
		Coalesced:           st.Coalesced,
		Reads:               st.Reads,
		Shed:                st.Shed,
		Latency:             writeLatencyStats(st.Latency),
		Remines:             st.Remines,
		Shards:              publicShards(st.Shards),
		SeqVector:           rs.Shards,
	}
	for _, ss := range st.PerShard {
		out.RelVersion += ss.RelVersion
		out.LiveRelVersion += ss.LiveRelVersion
		if st.Shards == 1 {
			continue // the totals above are the one shard's
		}
		out.PerShard = append(out.PerShard, ShardServerStats{
			Shard:               ss.Shard,
			SnapshotSeq:         ss.Seq,
			Tuples:              ss.N,
			RuleCount:           ss.RuleCount,
			RelVersion:          ss.RelVersion,
			LiveRelVersion:      ss.LiveRelVersion,
			Attachments:         ss.Attachments,
			DistinctAnnotations: ss.DistinctAnnotations,
			Requests:            ss.Requests,
			Batches:             ss.Batches,
			Coalesced:           ss.Coalesced,
			Reads:               ss.Reads,
			Shed:                ss.Shed,
			Remines:             ss.Engine.Remines,
		})
	}
	return out
}
