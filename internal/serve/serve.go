// Package serve turns the incremental maintenance engine into a concurrent
// serving core: a single-writer/many-reader wrapper in which readers work
// exclusively against an atomically published immutable Snapshot and never
// touch the engine's lock, while all mutations funnel through one writer
// goroutine that coalesces concurrently submitted batches (the paper's
// Cases 1–3 plus removal) into fewer engine applications and publishes a
// fresh snapshot after each.
//
// The design follows the workload shape the paper implies but does not
// build: many continuous "what correlates with X" / "what is tuple t
// missing" queries against a rule set that is being maintained online.
// Readers scale with GOMAXPROCS because a read is an atomic pointer load
// plus work on immutable data; writers pay the engine's incremental
// maintenance cost once per coalesced batch, not once per client call.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/metrics"
	"annotadb/internal/predict"
	"annotadb/internal/relation"
	"annotadb/internal/stream"
)

// ErrClosed is returned by write methods after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrJournal wraps write failures caused by the durability journal (e.g. a
// full disk under the write-ahead log). The request itself was valid, so
// transports should map it to a server-side failure status, not a
// bad-request one.
var ErrJournal = errors.New("serve: journal failure")

// ErrOverloaded is returned by write methods when the admission queue is
// full and no slot opened within one batch window: the writer is saturated
// and queueing longer would only grow every client's latency. The request
// was not admitted and had no effect; clients should back off and retry.
// Transports map it to 429 Too Many Requests with a Retry-After hint.
var ErrOverloaded = errors.New("serve: overloaded, admission queue full")

// Default tuning values; see Config.
const (
	DefaultBatchWindow = time.Millisecond
	DefaultMaxBatch    = 4096
	DefaultQueueDepth  = 128
)

// Journal is the durability hook the writer loop drives (implemented by
// the wal package's Store). The contract mirrors a classic write-ahead
// log: for every coalesced group the writer first calls LogAnnotations or
// LogTuples — an error fails the whole group before the engine is touched,
// so the durable log never lags an acknowledged write. After the batch is
// applied and the fresh snapshot published it calls Seal, and once the
// waiters are acknowledged, Committed, which is the journal's moment to run
// its checkpoint policy. Every method is called from the single writer
// goroutine only.
type Journal interface {
	// LogAnnotations records an annotation batch; remove distinguishes
	// detachment from attachment.
	LogAnnotations(updates []relation.AnnotationUpdate, remove bool) error
	// LogTuples records a tuple batch.
	LogTuples(tuples []relation.Tuple) error
	// Seal asks for the records logged so far to be made durable, for a
	// journal whose appends may defer their fsync to a group commit:
	//
	//   - nil means they are already as durable as the journal's policy
	//     promises (group commit off, or a sync policy that never gates
	//     acks on fsync): the writer acknowledges waiters inline;
	//   - a non-nil ticket resolves with one value once a single covering
	//     fsync has made every record logged before the call durable (nil),
	//     or with the sync error that latched the journal. The writer hands
	//     the batch's acknowledgements to its acker goroutine keyed on the
	//     ticket and immediately starts collecting the next batch, so the
	//     fsync of batch n overlaps the application of batch n+1 — the
	//     group-commit pipeline.
	Seal() <-chan error
	// Committed reports that every record logged so far is applied,
	// published, and acknowledged — the journal's moment to checkpoint
	// without holding up any waiter. Errors are counted
	// (Stats.JournalErrors), not fatal.
	Committed() error
}

// Latency aggregates the write path's per-stage latency histograms: queue
// wait (submit accepted to batch collection), apply (one journaled engine
// application), fsync (seal to covering group-commit fsync; empty unless
// the journal group-commits), and publish (snapshot capture + rule compile).
// A zero Latency is ready to use. Share one instance across the per-shard
// serving cores of a sharded router (Config.Latency) to get merged numbers.
type Latency struct {
	Queue   metrics.Histogram
	Apply   metrics.Histogram
	Fsync   metrics.Histogram
	Publish metrics.Histogram
}

// Stats digests every stage histogram at once.
func (l *Latency) Stats() LatencyStats {
	return LatencyStats{
		Queue:   l.Queue.Summary(),
		Apply:   l.Apply.Summary(),
		Fsync:   l.Fsync.Summary(),
		Publish: l.Publish.Summary(),
	}
}

// LatencyStats is a point-in-time digest of Latency, one summary per
// pipeline stage.
type LatencyStats struct {
	Queue   metrics.Summary `json:"queue"`
	Apply   metrics.Summary `json:"apply"`
	Fsync   metrics.Summary `json:"fsync"`
	Publish metrics.Summary `json:"publish"`
}

// Config tunes the serving core.
type Config struct {
	// BatchWindow is how long a submit waits for a slot in a full
	// admission queue before it fails with ErrOverloaded; transports derive
	// their Retry-After hint from it. Zero means DefaultBatchWindow;
	// negative sheds at once. The writer never waits on it: a batch is
	// whatever is already queued when the writer takes the first request.
	BatchWindow time.Duration
	// MaxBatch caps the number of individual updates (annotation
	// attachments or tuples) coalesced into one engine application.
	// Zero means DefaultMaxBatch.
	MaxBatch int
	// QueueDepth is the capacity of the pending-request channel. A writer
	// that finds it full waits at most one batch window for a slot, then
	// fails with ErrOverloaded — bounded admission instead of unbounded
	// queueing. Zero means DefaultQueueDepth.
	QueueDepth int
	// Latency, when non-nil, is the per-stage latency recorder the writer
	// observes into; share one instance across shards for merged numbers.
	// Nil makes the server allocate a private one (Stats reports it either
	// way).
	Latency *Latency
	// Recommend filters the rules compiled into each snapshot's
	// recommendation evaluator.
	Recommend predict.Options
	// Journal, when non-nil, write-ahead logs every batch before it is
	// applied. Nil serves purely in memory.
	Journal Journal
	// Stream, when non-nil, receives the rule churn of every published
	// snapshot: after each publish the writer diffs the outgoing and
	// incoming rule tiers (valid and candidate) and appends the typed
	// events — promoted, demoted, added, retired, confidence changed — to
	// the stream broker, stamped with the new snapshot's Seq. The initial
	// publish emits nothing: it is the baseline later generations diff
	// against (on a durable reopen that baseline is the recovered state, so
	// a restart does not replay the whole rule set as rule_added churn).
	Stream *stream.Publisher
}

func (c Config) batchWindow() time.Duration {
	if c.BatchWindow == 0 {
		return DefaultBatchWindow
	}
	return c.BatchWindow
}

func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 {
		return DefaultMaxBatch
	}
	return c.MaxBatch
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return DefaultQueueDepth
	}
	return c.QueueDepth
}

type opKind uint8

const (
	opAnnotations opKind = iota
	opRemovals
	opTuples
)

// reportCase maps a request kind to the update case its report carries.
// Tuple batches report Case 2: an empty batch trivially has no annotations.
func (k opKind) reportCase() incremental.Case {
	switch k {
	case opRemovals:
		return incremental.CaseRemoveAnnotations
	case opTuples:
		return incremental.CaseUnannotatedTuples
	default:
		return incremental.CaseNewAnnotations
	}
}

type result struct {
	rep *incremental.Report
	err error
}

type request struct {
	kind     opKind
	updates  []relation.AnnotationUpdate // opAnnotations, opRemovals
	tuples   []relation.Tuple            // opTuples
	done     chan result                 // buffered(1); writer never blocks
	enqueued time.Time                   // when submit stamped it (queue-wait metric)
}

func (r *request) size() int {
	if r.kind == opTuples {
		return len(r.tuples)
	}
	return len(r.updates)
}

// Server is the concurrent serving core. Construct with New; the zero value
// is not usable. After New, the server owns the engine and its relation:
// route every mutation through the server.
type Server struct {
	eng *incremental.Engine
	rel *relation.Relation
	cfg Config

	snap atomic.Pointer[Snapshot]
	seq  atomic.Uint64

	reqs chan *request
	quit chan struct{} // closed by Close
	done chan struct{} // closed when the writer loop AND the acker have drained

	// acks carries batches whose acknowledgements wait on a group-commit
	// fsync ticket from the writer to the acker goroutine; ackDone closes
	// when the acker has delivered everything.
	acks    chan pendingAck
	ackDone chan struct{}

	lat *Latency

	closeOnce sync.Once

	// counters
	requests    atomic.Uint64 // write requests accepted into the queue
	shed        atomic.Uint64 // write requests refused with ErrOverloaded
	batches     atomic.Uint64 // engine applications
	coalesced   atomic.Uint64 // requests that shared an application with another
	reads       atomic.Uint64 // snapshot loads
	journalErrs atomic.Uint64 // journal failures (failed groups + Committed errors)

	// commitErr latches the journal's most recent Committed failure until
	// the next Committed succeeds, so health probes surface a checkpoint
	// pipeline that silently stopped installing (a counter alone cannot
	// distinguish "failed once, recovered" from "failing every time").
	commitErr atomic.Pointer[error]
}

// pendingAck is one applied-and-published batch whose waiters are
// acknowledged only after its group-commit fsync ticket resolves.
type pendingAck struct {
	groups  [][]*request
	results []result
	ticket  <-chan error
	sealed  time.Time
}

// New wraps eng in a serving core and starts its writer loop. The initial
// snapshot is published before New returns, so reads are immediately valid.
func New(eng *incremental.Engine, cfg Config) *Server {
	lat := cfg.Latency
	if lat == nil {
		lat = &Latency{}
	}
	s := &Server{
		eng:     eng,
		rel:     eng.Relation(),
		cfg:     cfg,
		reqs:    make(chan *request, cfg.queueDepth()),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		acks:    make(chan pendingAck, cfg.queueDepth()),
		ackDone: make(chan struct{}),
		lat:     lat,
	}
	s.publish()
	go s.run()
	return s
}

// Close stops the writer loop after draining already queued updates, waiting
// up to ctx for the drain. Write calls racing with Close may fail with
// ErrClosed. Close is idempotent; reads remain valid (and final) afterwards.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() { close(s.quit) })
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: close: %w", ctx.Err())
	}
}

// --- read path -----------------------------------------------------------

// Snapshot returns the current published snapshot: an atomic pointer load,
// never nil, never blocked by writers.
func (s *Server) Snapshot() *Snapshot {
	s.reads.Add(1)
	return s.snap.Load()
}

// Seq returns the sequence of the currently published snapshot without
// counting as a served read (it is bookkeeping, not traffic). Because the
// writer publishes before it acks, the value loaded after a write's ack is
// at or beyond the sequence that made the write visible.
func (s *Server) Seq() uint64 {
	return s.snap.Load().Seq
}

// Recommend evaluates the snapshot's rules against the tuple at position
// idx and reports the snapshot sequence it answered from. Both the tuple
// contents and the rules come from the same published generation — one
// atomic snapshot load, zero relation lock acquisitions — so a reader can
// never see a tuple annotated after the rules it is scored against. An
// index valid in the live relation but not yet in the snapshot (the tuple
// was appended after the last publish) reports ErrTupleIndex: the tuple
// does not exist in this generation.
func (s *Server) Recommend(idx int) ([]predict.Recommendation, uint64, error) {
	snap := s.Snapshot()
	tu, err := snap.View.Tuple(idx)
	if err != nil {
		return nil, snap.Seq, err
	}
	return snap.Compiled.ForTupleAt(tu, idx), snap.Seq, nil
}

// Stats reports one serving core's counters plus its published snapshot's
// identity. Encoded by its JSON tags it is one shard's entry in the /stats
// per_shard array (see shard.ShardStats); the engine counters it embeds put
// only remines on the wire.
type Stats struct {
	// SnapshotSeq, Tuples and RuleCount identify the published snapshot.
	SnapshotSeq uint64 `json:"seq"`
	Tuples      int    `json:"tuples"`
	RuleCount   int    `json:"rule_count"`
	// RelVersion is the relation mutation counter the snapshot was
	// published at and LiveRelVersion the live relation's counter at the
	// moment Stats ran; Staleness, their difference, is the snapshot's
	// staleness in relation mutations (0 when the writer is idle).
	RelVersion     uint64 `json:"rel_version"`
	LiveRelVersion uint64 `json:"live_rel_version"`
	Staleness      uint64 `json:"staleness"`
	// Attachments and DistinctAnnotations describe the snapshot's relation
	// generation: total (tuple, annotation) pairs and annotations appearing
	// on at least one tuple.
	Attachments         int `json:"attachments"`
	DistinctAnnotations int `json:"distinct_annotations"`
	// Requests counts write requests accepted, Batches engine applications
	// after coalescing, Coalesced requests that shared an application, Reads
	// snapshot loads served, and Shed write requests refused with
	// ErrOverloaded.
	Requests  uint64 `json:"requests"`
	Batches   uint64 `json:"batches"`
	Coalesced uint64 `json:"coalesced"`
	Reads     uint64 `json:"reads"`
	Shed      uint64 `json:"shed"`
	// JournalErrors counts journal failures: groups rejected because their
	// write-ahead log append failed, plus post-publish Committed errors.
	JournalErrors uint64 `json:"-"`
	// Latency digests the write path's per-stage histograms. On a sharded
	// server every shard observes into one shared recorder, so the digest
	// is already merged and /stats reports it once, at the top level.
	Latency LatencyStats `json:"-"`
	// Stats are the engine lifetime counters as of the snapshot.
	incremental.Stats
}

// Stats returns current serving statistics. The relation section
// (Attachments, DistinctAnnotations) was folded from the snapshot's frozen
// frequency table at publish time; only LiveRelVersion reads the live
// relation (one short RLock), so polling Stats cannot stall the writer
// behind an O(n) scan.
func (s *Server) Stats() Stats {
	snap := s.snap.Load()
	live := s.rel.Version()
	return Stats{
		SnapshotSeq:         snap.Seq,
		Tuples:              snap.N,
		RuleCount:           snap.Rules.Len(),
		RelVersion:          snap.RelVersion,
		LiveRelVersion:      live,
		Staleness:           live - snap.RelVersion,
		Attachments:         snap.Attachments,
		DistinctAnnotations: snap.DistinctAnnotations,
		Requests:            s.requests.Load(),
		Shed:                s.shed.Load(),
		Batches:             s.batches.Load(),
		Coalesced:           s.coalesced.Load(),
		Reads:               s.reads.Load(),
		JournalErrors:       s.journalErrs.Load(),
		Latency:             s.lat.Stats(),
		Stats:               snap.Stats,
	}
}

// JournalErr reports the journal's latched Committed failure: non-nil from
// the moment a post-publish Committed call fails until the next one
// succeeds. Acknowledged writes are unaffected (their records are in the
// durable log), but checkpoints have stopped installing, so recovery cost
// grows without bound — health probes surface this as degraded. Safe from
// any goroutine.
func (s *Server) JournalErr() error {
	if p := s.commitErr.Load(); p != nil {
		return fmt.Errorf("serve: journal checkpoint pipeline failing: %w", *p)
	}
	return nil
}

// --- write path ----------------------------------------------------------

// AddAnnotations submits a Case 3 batch and waits for it to be applied.
// The returned report covers the whole coalesced engine application the
// batch rode in, which may include other clients' updates. Duplicate
// attachments are skipped, not errors, matching the engine.
//
// The batch is validated up front so that a bad update cannot poison a
// coalesced application: indexes must be in range now (the relation only
// grows, so they stay in range) and items must be annotations.
func (s *Server) AddAnnotations(ctx context.Context, updates []relation.AnnotationUpdate) (*incremental.Report, error) {
	if err := s.validateUpdates(updates); err != nil {
		return nil, err
	}
	return s.submit(ctx, &request{kind: opAnnotations, updates: updates})
}

// RemoveAnnotations submits an annotation-removal batch (the engine's
// Case 3 in reverse) and waits for it to be applied. Entries whose
// annotation is absent are skipped, not errors.
func (s *Server) RemoveAnnotations(ctx context.Context, updates []relation.AnnotationUpdate) (*incremental.Report, error) {
	if err := s.validateUpdates(updates); err != nil {
		return nil, err
	}
	return s.submit(ctx, &request{kind: opRemovals, updates: updates})
}

// AddTuples submits a tuple batch and waits for it to be applied. The
// writer routes the coalesced group through the paper's Case 1 path when
// any tuple carries annotations and the cheaper Case 2 path when none do.
func (s *Server) AddTuples(ctx context.Context, tuples []relation.Tuple) (*incremental.Report, error) {
	return s.submit(ctx, &request{kind: opTuples, tuples: tuples})
}

func (s *Server) validateUpdates(updates []relation.AnnotationUpdate) error {
	n := s.rel.Len()
	for i, u := range updates {
		if u.Index < 0 || u.Index >= n {
			return fmt.Errorf("serve: update %d: %w: %d (relation has %d tuples)", i, relation.ErrTupleIndex, u.Index, n)
		}
		if !u.Annotation.IsAnnotation() {
			return fmt.Errorf("serve: update %d: item %v is not an annotation", i, u.Annotation)
		}
	}
	return nil
}

func (s *Server) submit(ctx context.Context, req *request) (*incremental.Report, error) {
	if req.size() == 0 {
		// Nothing to apply; answer without waking the writer, with the
		// same Case the engine would stamp on an empty batch of this kind.
		return &incremental.Report{Case: req.kind.reportCase()}, nil
	}
	req.done = make(chan result, 1)
	req.enqueued = time.Now()
	select {
	case <-s.quit:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	case s.reqs <- req:
	default:
		// Queue full. The writer drains a full queue in about one collect
		// pass, so wait at most one batch window for a slot; a queue still
		// full after that is saturation, not a momentary burst — shed the
		// request instead of queueing into ever-growing latency.
		if err := s.admit(ctx, req); err != nil {
			return nil, err
		}
	}
	s.requests.Add(1)
	select {
	case res := <-req.done:
		return res.rep, res.err
	case <-ctx.Done():
		// The update may still be applied by the writer; only the ack is
		// abandoned (req.done is buffered, so the writer never blocks).
		return nil, ctx.Err()
	case <-s.done:
		// Writer exited. A final drain may still have applied the request;
		// prefer its real result when available.
		select {
		case res := <-req.done:
			return res.rep, res.err
		default:
			return nil, ErrClosed
		}
	}
}

// admit waits up to one batch window for a queue slot, then sheds with
// ErrOverloaded. Called by submit only after a non-blocking send failed.
func (s *Server) admit(ctx context.Context, req *request) error {
	window := s.cfg.batchWindow()
	if window <= 0 {
		s.shed.Add(1)
		return ErrOverloaded
	}
	deadline := time.NewTimer(window)
	defer deadline.Stop()
	select {
	case <-s.quit:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	case s.reqs <- req:
		return nil
	case <-deadline.C:
		s.shed.Add(1)
		return ErrOverloaded
	}
}

// --- writer loop ---------------------------------------------------------

func (s *Server) run() {
	go s.ackLoop()
	defer func() {
		// Every admitted request has been applied (drain ran) and its ack
		// handed off; let the acker deliver the tail before s.done declares
		// the server fully drained.
		close(s.acks)
		<-s.ackDone
		close(s.done)
	}()
	for {
		select {
		case req := <-s.reqs:
			s.apply(s.collect(req))
		case <-s.quit:
			s.drain()
			return
		}
	}
}

// ackLoop delivers deferred acknowledgements in batch order once each
// batch's group-commit fsync ticket resolves. Running it off the writer
// goroutine is what pipelines the commit: the writer starts collecting and
// applying batch n+1 while batch n waits for its covering fsync here.
func (s *Server) ackLoop() {
	defer close(s.ackDone)
	for p := range s.acks {
		err := <-p.ticket
		s.lat.Fsync.Observe(time.Since(p.sealed))
		if err != nil {
			s.journalErrs.Add(1)
			err = fmt.Errorf("%w: %w", ErrJournal, err)
		}
		s.deliver(p, err)
	}
}

// deliver acknowledges every waiter of one batch. A sync failure overrides
// the per-group results: the batch was applied and published, but its
// records never became durable, so acking success would break the
// acknowledged-implies-recoverable contract.
func (s *Server) deliver(p pendingAck, syncErr error) {
	for gi, group := range p.groups {
		res := p.results[gi]
		if syncErr != nil && res.err == nil {
			res = result{err: syncErr}
		}
		for _, r := range group {
			r.done <- res
		}
	}
}

// collect coalesces requests around first: everything already queued rides
// the same batch, up to MaxBatch updates. It never waits for more. The
// incremental cases make a small batch cheap, so a lone write is applied at
// once; requests that arrive while this batch applies and fsyncs queue up
// and ride the next one.
func (s *Server) collect(first *request) []*request {
	batch := []*request{first}
	size := first.size()
	for max := s.cfg.maxBatch(); size < max; {
		select {
		case r := <-s.reqs:
			batch = append(batch, r)
			size += r.size()
		default:
			return batch
		}
	}
	return batch
}

// drain applies every request still queued at shutdown.
func (s *Server) drain() {
	for {
		select {
		case req := <-s.reqs:
			s.apply(s.collect(req))
		default:
			return
		}
	}
}

// apply groups a coalesced batch into runs of like-kind requests (order
// preserved) and applies each run as one engine call. The fresh snapshot is
// published before any waiter is answered: an acknowledged write is
// guaranteed visible to the writer's next snapshot read (read-your-writes).
func (s *Server) apply(batch []*request) {
	now := time.Now()
	for _, r := range batch {
		s.lat.Queue.Observe(now.Sub(r.enqueued))
	}
	results := make([]result, 0, len(batch))
	groups := make([][]*request, 0, len(batch))
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].kind == batch[i].kind {
			j++
		}
		group := batch[i:j]
		groups = append(groups, group)
		applyStart := time.Now()
		results = append(results, s.applyGroup(batch[i].kind, group))
		s.lat.Apply.Observe(time.Since(applyStart))
		i = j
	}
	pubStart := time.Now()
	s.publish()
	s.lat.Publish.Observe(time.Since(pubStart))
	// Acknowledge. A group-committing journal returns a seal ticket: the
	// batch's acks then wait (on the acker goroutine) for the covering
	// fsync while this writer moves on to the next batch — the pipeline
	// that lets one fsync cover every batch applied while the previous
	// fsync was in flight. A nil ticket means the appends are already as
	// durable as the policy promises: ack inline, exactly as before.
	var ticket <-chan error
	if s.cfg.Journal != nil {
		ticket = s.cfg.Journal.Seal()
	}
	if ticket == nil {
		s.deliver(pendingAck{groups: groups, results: results}, nil)
	} else {
		p := pendingAck{groups: groups, results: results, ticket: ticket, sealed: time.Now()}
		select {
		case err := <-p.ticket:
			// Already resolved (the committer was idle and synced at once):
			// skip the acker hop.
			s.lat.Fsync.Observe(time.Since(p.sealed))
			if err != nil {
				s.journalErrs.Add(1)
				err = fmt.Errorf("%w: %w", ErrJournal, err)
			}
			s.deliver(p, err)
		default:
			s.acks <- p
		}
	}
	// After the acks are handed off: Committed may trigger a checkpoint (a
	// full state serialize + fsync), and waiters whose records are already
	// in the log should not sit through it.
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Committed(); err != nil {
			s.journalErrs.Add(1)
			s.commitErr.Store(&err)
		} else {
			s.commitErr.Store(nil)
		}
	}
}

func (s *Server) applyGroup(kind opKind, group []*request) result {
	s.batches.Add(1)
	if len(group) > 1 {
		s.coalesced.Add(uint64(len(group)))
	}
	var (
		rep *incremental.Report
		err error
	)
	switch kind {
	case opAnnotations, opRemovals:
		var updates []relation.AnnotationUpdate
		if len(group) == 1 {
			updates = group[0].updates
		} else {
			for _, r := range group {
				updates = append(updates, r.updates...)
			}
		}
		if s.cfg.Journal != nil {
			if jerr := s.cfg.Journal.LogAnnotations(updates, kind == opRemovals); jerr != nil {
				s.journalErrs.Add(1)
				return result{err: fmt.Errorf("%w: %w", ErrJournal, jerr)}
			}
		}
		if kind == opAnnotations {
			rep, err = s.eng.AddAnnotations(updates)
		} else {
			rep, err = s.eng.RemoveAnnotations(updates)
		}
	case opTuples:
		var tuples []relation.Tuple
		if len(group) == 1 {
			tuples = group[0].tuples
		} else {
			for _, r := range group {
				tuples = append(tuples, r.tuples...)
			}
		}
		if s.cfg.Journal != nil {
			if jerr := s.cfg.Journal.LogTuples(tuples); jerr != nil {
				s.journalErrs.Add(1)
				return result{err: fmt.Errorf("%w: %w", ErrJournal, jerr)}
			}
		}
		rep, err = s.eng.AddTuples(tuples)
	}
	return result{rep: rep, err: err}
}

// publish captures the engine state (one lock acquisition) and swaps in a
// new immutable snapshot. The engine snapshot pins the relation generation
// alongside the rule view, so View and Rules always pair; the relation's
// copy-on-write store makes the capture O(1) and charges the next batch
// only for the chunks it actually touches.
func (s *Server) publish() {
	es := s.eng.Snapshot()
	attachments, distinct := es.View.AttachmentTotals()
	prev := s.snap.Load()
	snap := &Snapshot{
		Snapshot:            es,
		Seq:                 s.seq.Add(1),
		Compiled:            predict.Compile(es.Rules, s.cfg.Recommend),
		Attachments:         attachments,
		DistinctAnnotations: distinct,
	}
	s.snap.Store(snap)
	if s.cfg.Stream != nil && prev != nil {
		// The initial publish (prev == nil) is the diff baseline, not churn.
		s.cfg.Stream.Publish(snap.Seq,
			stream.TierViews{Valid: prev.Rules, Candidates: prev.Candidates},
			stream.TierViews{Valid: snap.Rules, Candidates: snap.Candidates})
	}
}
