// Package shard partitions the serving write path by annotation family: a
// Router hashes every annotation token's family (relation.FamilyOf) to one of N
// independent shards, each holding its own relation replica, incremental
// maintenance engine, and single-writer serving core — so coalesced
// annotation batches for different families commit in parallel instead of
// serializing through one writer, while reads merge the per-shard immutable
// snapshots at a consistent sequence vector.
//
// # Partitioning model
//
// Every shard stores every tuple's data values (and the tuple order is
// identical across shards), but only the annotations whose family routes to
// it. Because a pattern's count depends only on the tuples that contain it,
// this projection preserves the exact count of every pattern whose
// annotations live on one shard: data-to-annotation rules (one annotation
// per pattern) are exact on every shard count, and annotation-to-annotation
// rules are exact whenever their annotations share a family — which is the
// contract: namespace tokens that should correlate under one family prefix
// ("Annot_src:db1", "Annot_src:db2"). The merged rule set is the disjoint
// union of the per-shard valid sets, identical to the unsharded engine's
// rules for every intra-family pattern; correlations between annotations
// placed on different shards are outside the sharded contract.
//
// # Write routing
//
// Annotation attach/detach batches — the paper's Case 3 and its removal
// inverse, the dominant update stream — are split by family and submitted to
// the owning shards concurrently; a batch touching one family costs exactly
// one shard's writer. Tuple appends fan out to every shard (each receives
// the tuple's data values plus its own families' annotations) under a
// router-level order lock so all replicas append in the same order; the
// paper's Case 1/2 maintenance for the batch then proceeds per shard in
// parallel.
//
// # Read merging
//
// Snapshots loads each shard's atomically published immutable snapshot; the
// resulting vector of per-shard sequence numbers identifies the merged
// generation. A tuple exists in the merged view once every shard's snapshot
// holds it (index < min N), and its annotation set is the disjoint union of
// the per-shard views. Recommendations evaluate each shard's compiled rules
// against that shard's own snapshot tuple — rules never reference another
// shard's annotations, so no cross-shard join is needed on the read path —
// and the merged result is their concatenation.
package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"annotadb/internal/incremental"
	"annotadb/internal/itemset"
	"annotadb/internal/predict"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
	"annotadb/internal/serve"
	"annotadb/internal/stream"
	"annotadb/internal/wal"
)

// Update is one token-level annotation attachment (or detachment): the
// relation package's token-form update, with fields Tuple (zero-based
// position) and Annotation (token). The router works in tokens rather than
// interned items because each shard owns an independent dictionary; the same
// type is the write-ahead log's record form, so a replication follower feeds
// logged batches to its router as they are.
type Update = relation.TokenUpdate

// TupleSpec is one token-level tuple to append: the relation package's
// token-form tuple, with fields Values and Annotations (tokens). The router
// projects it per shard.
type TupleSpec = relation.TokenTuple

// Config configures a Router.
type Config struct {
	// Shards is the number of independent shards; 0 or 1 means a single
	// shard with every family on it — the unsharded server.
	Shards int
	// Serve is the per-shard serving configuration (batch window, queue
	// depth, recommendation filter). Its Journal and Stream fields must be
	// nil; use Journals to attach per-shard durability and Stream to attach
	// the shared churn broker.
	Serve serve.Config
	// Journals, when non-nil, must hold one Journal per shard; shard i's
	// writer write-ahead logs through Journals[i].
	Journals []serve.Journal
	// Stream, when non-nil, receives every shard's rule-churn events: each
	// shard's writer diffs its own snapshots and appends to this shared
	// broker, whose append lock merges the per-shard streams into one
	// cursor order stamped with the merged seq vector. Config.Serve's own
	// Stream field must be nil; the router wires a per-shard publisher.
	Stream *stream.Broker
}

func (c Config) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

// shardState is one shard: its serving core, engine, and dictionary.
type shardState struct {
	srv  *serve.Server
	eng  *incremental.Engine
	rel  *relation.Relation
	dict *relation.Dictionary
}

// ErrReplicasDiverged is returned by write methods after a partial tuple
// append fan-out left the shard replicas at different lengths: later writes
// could place the same tuple at different positions on different shards, so
// the router refuses them instead of silently diverging. Reads keep
// serving; a durable cluster repairs the replicas at the next open
// (reconcile), an in-memory router must be rebuilt.
var ErrReplicasDiverged = errors.New("shard: replicas diverged after a partial append fan-out; restart to repair")

// Router fans requests out over N shards. Construct with New or FromEngines;
// the zero value is not usable.
type Router struct {
	cfg    Config
	shards []*shardState
	// appendMu serializes tuple-append fan-out so every shard's replica
	// appends tuples in the same order; annotation batches (single-shard)
	// and the appends of a one-shard router never take it.
	appendMu sync.Mutex
	// failed latches the router when replica lengths diverged (a tuple
	// append applied on some shards but not others, e.g. one shard's WAL
	// filled mid-fan-out). Writes check it and refuse; see
	// ErrReplicasDiverged.
	failed atomic.Pointer[error]
}

// Err reports the latched replica-divergence failure, wrapped in
// ErrReplicasDiverged, or nil while the router is healthy. Health probes
// surface it so a load balancer stops routing writes at a latched replica
// set instead of collecting per-request errors.
func (r *Router) Err() error {
	if p := r.failed.Load(); p != nil {
		return fmt.Errorf("%w: %w", ErrReplicasDiverged, *p)
	}
	return nil
}

// writeAllowed reports the latched failure, if any.
func (r *Router) writeAllowed() error { return r.Err() }

// JournalErr reports the first shard whose checkpoint pipeline is failing
// (see serve.Server.JournalErr), or nil when every shard's journal is
// healthy. Health probes surface it alongside Err.
func (r *Router) JournalErr() error {
	for s, sh := range r.shards {
		if err := sh.srv.JournalErr(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// NewRouter partitions src by annotation family into cfg.Shards relations
// (one ProjectAll pass), mines each shard in parallel with build, and
// starts the per-shard serving cores. src is read once; the router's
// shards own independent relations and dictionaries afterwards.
func NewRouter(src relation.Source, build EngineBuilder, cfg Config) (*Router, error) {
	n := cfg.shards()
	if cfg.Journals != nil && len(cfg.Journals) != n {
		return nil, fmt.Errorf("shard: %d journals for %d shards", len(cfg.Journals), n)
	}
	rels, err := ProjectAll(src, n)
	if err != nil {
		return nil, err
	}
	engines := make([]*incremental.Engine, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			engines[s], errs[s] = build(rels[s])
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return FromEngines(engines, cfg)
}

// EngineBuilder mines one shard's projected relation into an engine. It is
// invoked concurrently, once per shard.
type EngineBuilder func(rel *relation.Relation) (*incremental.Engine, error)

// FromEngines wraps pre-built per-shard engines (each from its shard's wal
// store on the durable path; a plain engine for a one-shard in-memory
// server or a follower world) in serving cores. len(engines)
// must equal cfg.Shards, and engine i's relation must be the shard-i
// projection (same tuple count and order on every shard).
func FromEngines(engines []*incremental.Engine, cfg Config) (*Router, error) {
	n := cfg.shards()
	if len(engines) != n {
		return nil, fmt.Errorf("shard: %d engines for %d shards", len(engines), n)
	}
	if cfg.Journals != nil && len(cfg.Journals) != n {
		return nil, fmt.Errorf("shard: %d journals for %d shards", len(cfg.Journals), n)
	}
	for s := 1; s < n; s++ {
		if a, b := engines[s].Relation().Len(), engines[0].Relation().Len(); a != b {
			return nil, fmt.Errorf("shard: shard %d holds %d tuples, shard 0 holds %d; replicas out of step", s, a, b)
		}
	}
	r := &Router{cfg: cfg, shards: make([]*shardState, n)}
	// One latency recorder shared by every shard: the per-stage histograms
	// are cross-shard aggregates (a request's stage costs don't depend on
	// which shard served it), and sharing keeps /stats reporting one set of
	// quantiles instead of n.
	if cfg.Serve.Latency == nil {
		cfg.Serve.Latency = &serve.Latency{}
	}
	for s, eng := range engines {
		scfg := cfg.Serve
		// The recommendation cap applies to the merged result (Router.limit,
		// in the router's deterministic token order); a per-shard cap would
		// trim each shard by its own internal item order before the merge,
		// dropping entries the merged ordering would have kept.
		scfg.Recommend.Limit = 0
		if cfg.Journals != nil {
			scfg.Journal = cfg.Journals[s]
		}
		rel := eng.Relation()
		if cfg.Stream != nil {
			scfg.Stream = stream.NewPublisher(cfg.Stream, s, rel.Dictionary())
		}
		r.shards[s] = &shardState{
			srv:  serve.New(eng, scfg),
			eng:  eng,
			rel:  rel,
			dict: rel.Dictionary(),
		}
	}
	return r, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// Engines returns the per-shard engines, indexed by shard. Treat them as
// read-only; route every mutation through the router.
func (r *Router) Engines() []*incremental.Engine {
	out := make([]*incremental.Engine, len(r.shards))
	for s, sh := range r.shards {
		out[s] = sh.eng
	}
	return out
}

// Len returns the merged relation length: the minimum live replica length.
// Replicas disagree only while an append fan-out is in flight or after a
// partial fan-out failure — and the latter latches the router against
// further writes (ErrReplicasDiverged).
func (r *Router) Len() int {
	n := r.shards[0].rel.Len()
	for _, sh := range r.shards[1:] {
		if l := sh.rel.Len(); l < n {
			n = l
		}
	}
	return n
}

// Close stops every shard's writer loop after draining queued updates,
// waiting up to ctx. The first error is returned; all shards are closed
// regardless.
func (r *Router) Close(ctx context.Context) error {
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for s, sh := range r.shards {
		wg.Add(1)
		go func(s int, sh *shardState) {
			defer wg.Done()
			errs[s] = sh.srv.Close(ctx)
		}(s, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// --- write path ----------------------------------------------------------

// mergeReports folds per-shard reports into one batch report: churn counters
// add, Applied/Skipped add (each update applies on exactly one shard, and
// each appended tuple counts once via the max rule below for tuple batches),
// Duration is the slowest shard (the batch's critical path), and Remined is
// sticky.
func mergeReports(c incremental.Case, reps []*incremental.Report, tuples bool) *incremental.Report {
	out := &incremental.Report{Case: c}
	for _, rep := range reps {
		if rep == nil {
			continue
		}
		if tuples {
			// Every shard appends the whole (projected) batch; count it once.
			if rep.Applied > out.Applied {
				out.Applied = rep.Applied
			}
			if rep.Skipped > out.Skipped {
				out.Skipped = rep.Skipped
			}
		} else {
			out.Applied += rep.Applied
			out.Skipped += rep.Skipped
		}
		out.Promoted += rep.Promoted
		out.Demoted += rep.Demoted
		out.Dropped += rep.Dropped
		out.Discovered += rep.Discovered
		if rep.Remined {
			out.Remined = true
		}
		if rep.Duration > out.Duration {
			out.Duration = rep.Duration
		}
	}
	return out
}

// validate rejects a batch whose indexes or tokens could not apply, before
// any shard is touched or any token interned: a rejected batch must not
// grow a dictionary. The messages reach HTTP clients of every shard count,
// so they name no package of the write path.
func (r *Router) validate(updates []Update) error {
	n := r.Len()
	for i, u := range updates {
		if u.Tuple < 0 || u.Tuple >= n {
			return fmt.Errorf("update %d: %w: %d (relation has %d tuples)", i, relation.ErrTupleIndex, u.Tuple, n)
		}
		if u.Annotation == "" {
			return fmt.Errorf("update %d: empty annotation token", i)
		}
	}
	return nil
}

// AddAnnotations splits a Case 3 batch by annotation family, submits each
// sub-batch to its owning shard concurrently, and waits for all of them. The
// merged report covers every shard's coalesced application. Batch atomicity
// is per shard: indexes and tokens are validated up front (a bad update
// rejects the whole batch before any shard is touched), but a mid-flight
// failure on one shard — a full disk under that shard's log, say — fails the
// call while other shards' sub-batches may have applied.
func (r *Router) AddAnnotations(ctx context.Context, updates []Update) (*incremental.Report, error) {
	return r.annotate(ctx, updates, false, false)
}

// RemoveAnnotations splits a removal batch by annotation family and submits
// each sub-batch to its owning shard concurrently. Entries whose annotation
// is absent from the tuple are skipped, not errors; an annotation token the
// dataset has never seen is an error.
func (r *Router) RemoveAnnotations(ctx context.Context, updates []Update) (*incremental.Report, error) {
	return r.annotate(ctx, updates, true, false)
}

// Replay applies one logged record in the token form it was logged in — the
// write path the primary's own request took — with recovery's one leniency
// (wal's applyRecord): a removal of a token this dictionary has never held
// interns the token and skips, where a client's removal is refused. The
// primary can hold a token no record carries — a rejected, shed or cancelled
// write interns before it fails — so a removal it journaled and acknowledged
// as a skip has to be a skip for whoever replays its log.
func (r *Router) Replay(ctx context.Context, rec wal.Record) error {
	var err error
	switch rec.Kind {
	case wal.KindAddAnnotations:
		_, err = r.annotate(ctx, rec.Updates, false, true)
	case wal.KindRemoveAnnotations:
		_, err = r.annotate(ctx, rec.Updates, true, true)
	case wal.KindAddTuples:
		_, err = r.AddTuples(ctx, rec.Tuples)
	default:
		err = fmt.Errorf("replay: unknown record kind %v", rec.Kind)
	}
	return err
}

// annotate is the body of both annotation writes. replay marks a logged
// record (see Replay): a removal's unknown token is interned, not refused.
func (r *Router) annotate(ctx context.Context, updates []Update, remove, replay bool) (*incremental.Report, error) {
	c := incremental.CaseNewAnnotations
	if remove {
		c = incremental.CaseRemoveAnnotations
	}
	if len(updates) == 0 {
		return &incremental.Report{Case: c}, nil
	}
	if err := r.writeAllowed(); err != nil {
		return nil, err
	}
	if err := r.validate(updates); err != nil {
		return nil, err
	}
	n := len(r.shards)
	perShard := make([][]relation.AnnotationUpdate, n)
	what := "update"
	if remove {
		what = "removal"
	}
	for i, u := range updates {
		s := ShardOf(u.Annotation, n)
		dict := r.shards[s].dict
		it, ok, err := dict.LookupAnnotation(u.Annotation)
		switch {
		case !ok && remove && !replay:
			return nil, fmt.Errorf("removal %d: annotation %q unknown to this dataset", i, u.Annotation)
		case !ok:
			it, err = dict.ResolveAnnotation(u.Annotation)
		}
		if err != nil {
			return nil, fmt.Errorf("%s %d: %w", what, i, err)
		}
		perShard[s] = append(perShard[s], relation.AnnotationUpdate{Index: u.Tuple, Annotation: it})
	}
	reps := make([]*incremental.Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := range perShard {
		if len(perShard[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if remove {
				reps[s], errs[s] = r.shards[s].srv.RemoveAnnotations(ctx, perShard[s])
			} else {
				reps[s], errs[s] = r.shards[s].srv.AddAnnotations(ctx, perShard[s])
			}
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return mergeReports(c, reps, false), nil
}

// AddTuples appends a token-level tuple batch to every shard: each replica
// receives every tuple's data values plus the annotations its families own.
// Appends across shards are serialized by an order lock so replicas never
// disagree on tuple positions; the per-shard maintenance (the paper's
// Case 1/2) still runs in parallel. The merged report counts each tuple
// once and the rule churn of every shard.
//
// ctx gates admission only: once the fan-out starts, the router waits for
// every shard regardless of cancellation — a batch applied on some replicas
// but not others would shift all later tuple positions apart. If a shard
// does fail mid-fan-out (its WAL disk filled, say) and the replica lengths
// no longer agree, the router latches and further writes return
// ErrReplicasDiverged; durable recovery repairs the replicas at reopen.
func (r *Router) AddTuples(ctx context.Context, tuples []TupleSpec) (*incremental.Report, error) {
	if len(tuples) == 0 {
		return &incremental.Report{Case: incremental.CaseUnannotatedTuples}, nil
	}
	if err := r.writeAllowed(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One pass over the batch: every replica gets each tuple's values, and
	// each annotation goes to the one shard its family hashes to. items
	// holds the tuple under construction per shard and is reused.
	n := len(r.shards)
	annotated := false
	perShard := make([][]relation.Tuple, n)
	items := make([][]itemset.Item, n)
	for s := range perShard {
		perShard[s] = make([]relation.Tuple, 0, len(tuples))
	}
	for i, spec := range tuples {
		annotated = annotated || len(spec.Annotations) > 0
		for s := range items {
			items[s] = items[s][:0]
		}
		for _, tok := range spec.Values {
			for s, sh := range r.shards {
				it, err := sh.dict.InternData(tok)
				if err != nil {
					return nil, fmt.Errorf("tuple %d: %w", i, err)
				}
				items[s] = append(items[s], it)
			}
		}
		for _, tok := range spec.Annotations {
			s := ShardOf(tok, n)
			it, err := r.shards[s].dict.ResolveAnnotation(tok)
			if err != nil {
				return nil, fmt.Errorf("tuple %d: %w", i, err)
			}
			items[s] = append(items[s], it)
		}
		for s := range perShard {
			perShard[s] = append(perShard[s], relation.NewTuple(items[s]...))
		}
	}
	c := incremental.CaseUnannotatedTuples
	if annotated {
		c = incremental.CaseAnnotatedTuples
	}
	if n > 1 {
		// A lone replica has no peer to disagree with: its writer orders
		// the appends, and concurrent ones coalesce into one batch there.
		// The lock, held across the whole commit, would queue them up.
		r.appendMu.Lock()
		defer r.appendMu.Unlock()
	}
	reps := make([]*incremental.Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Background, not ctx: a client cancellation must not split the
			// fan-out (see the method comment).
			reps[s], errs[s] = r.shards[s].srv.AddTuples(context.Background(), perShard[s])
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		// If the failure left the replicas at different lengths, every
		// later append would misalign tuple positions across shards: latch.
		// (Lengths are stable here — appendMu is held and every shard's
		// submission has completed.)
		for _, sh := range r.shards[1:] {
			if sh.rel.Len() != r.shards[0].rel.Len() {
				r.failed.CompareAndSwap(nil, &err)
				break
			}
		}
		return nil, err
	}
	return mergeReports(c, reps, true), nil
}

// --- read path -----------------------------------------------------------

// ShardSnapshot pairs one shard's published snapshot with the dictionary its
// items render under.
type ShardSnapshot struct {
	// Shard is the shard index.
	Shard int
	// Snap is the shard's current immutable snapshot.
	Snap *serve.Snapshot
	// Dict renders the snapshot's items to tokens.
	Dict *relation.Dictionary
}

// Snapshots loads every shard's current published snapshot. The vector of
// Snap.Seq values identifies the merged generation; each component is
// immutable, so the caller can answer any number of reads from one vector.
func (r *Router) Snapshots() []ShardSnapshot {
	out := make([]ShardSnapshot, len(r.shards))
	for s, sh := range r.shards {
		out[s] = ShardSnapshot{Shard: s, Snap: sh.srv.Snapshot(), Dict: sh.dict}
	}
	return out
}

// Seqs returns the current per-shard snapshot sequence vector without
// pinning snapshots or counting reads: one atomic seq load per shard.
// Each component loaded after a write's ack is at or beyond the sequence
// that made the write visible on its shard (writers publish before they
// ack), so the vector is a read-your-writes watermark for acked writes.
func (r *Router) Seqs() []uint64 {
	out := make([]uint64, len(r.shards))
	for s, sh := range r.shards {
		out[s] = sh.srv.Seq()
	}
	return out
}

// Seqs returns the per-shard snapshot sequence vector of snaps.
func Seqs(snaps []ShardSnapshot) []uint64 {
	out := make([]uint64, len(snaps))
	for i, s := range snaps {
		out[i] = s.Snap.Seq
	}
	return out
}

// SortRules orders token-form rules deterministically: by kind, then LHS
// tokens compared element by element (a prefix first), then RHS token.
// Unlike the rules package's Sorted order it compares tokens, not interned
// ids, and does not put shorter LHSs first, so the order is the same for
// every shard's dictionary. Data-to-annotation rules come first, as there;
// that is the reverse of the wire kind strings' lexicographic order.
func SortRules(rs []rules.TokenRule) {
	dataFirst := rules.DataToAnnotation.String()
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Kind != rs[j].Kind {
			return rs[i].Kind == dataFirst
		}
		if c := slices.Compare(rs[i].LHS, rs[j].LHS); c != 0 {
			return c < 0
		}
		return rs[i].RHS < rs[j].RHS
	})
}

// MergedRules renders the merged valid rule set of one snapshot vector:
// the disjoint union of every shard's rule view, token-rendered and
// deterministically ordered. Callers that cache by the vector (the root
// facade) load Snapshots first, consult their cache, and only render on a
// miss. The result is never nil, so an empty rule set encodes as [].
func MergedRules(snaps []ShardSnapshot) []rules.TokenRule {
	out := []rules.TokenRule{}
	for _, s := range snaps {
		out = append(out, rules.RenderAll(s.Dict, s.Snap.Rules.Sorted())...)
	}
	SortRules(out)
	return out
}

// Rules returns the merged valid rule set of the current generation plus
// the sequence vector it came from; see MergedRules.
func (r *Router) Rules() ([]rules.TokenRule, []uint64) {
	snaps := r.Snapshots()
	return MergedRules(snaps), Seqs(snaps)
}

// Recommend evaluates every shard's snapshot rules against its own view of
// the tuple at idx and merges the results. Each shard's pairing of tuple
// contents and rules is internally consistent (one immutable snapshot), and
// the per-shard annotation sets are disjoint, so the merge is a
// concatenation. A tuple not yet present in every shard's snapshot reports
// relation.ErrTupleIndex: it does not exist in the merged generation. The
// returned vector is the per-shard sequence the answer was served from.
func (r *Router) Recommend(idx int) ([]predict.TokenRecommendation, []uint64, error) {
	snaps := r.Snapshots()
	seqs := Seqs(snaps)
	if idx < 0 {
		return nil, seqs, fmt.Errorf("%w: %d", relation.ErrTupleIndex, idx)
	}
	minN := snaps[0].Snap.N
	for _, s := range snaps[1:] {
		if s.Snap.N < minN {
			minN = s.Snap.N
		}
	}
	if idx >= minN {
		return nil, seqs, fmt.Errorf("%w: %d (merged snapshot has %d tuples)", relation.ErrTupleIndex, idx, minN)
	}
	out := []predict.TokenRecommendation{}
	for _, s := range snaps {
		tu, err := s.Snap.View.Tuple(idx)
		if err != nil {
			return nil, seqs, err
		}
		out = append(out, predict.Render(s.Dict, s.Snap.Compiled.ForTupleAt(tu, idx))...)
	}
	sortRecommendations(out)
	out = r.limit(out)
	return out, seqs, nil
}

// RecommendIncoming evaluates a free-standing token-level tuple against the
// merged snapshot rules (the paper's insert trigger). As a pure read it
// never grows any shard's dictionary: unknown tokens are ignored, which
// cannot change the outcome.
func (r *Router) RecommendIncoming(spec TupleSpec) []predict.TokenRecommendation {
	snaps := r.Snapshots()
	out := []predict.TokenRecommendation{}
	for _, s := range snaps {
		var items []itemset.Item
		for _, tok := range spec.Values {
			if it, ok := s.Dict.Lookup(tok); ok {
				items = append(items, it)
			}
		}
		for _, tok := range spec.Annotations {
			if ShardOf(tok, len(snaps)) != s.Shard {
				continue
			}
			if it, ok := s.Dict.Lookup(tok); ok {
				items = append(items, it)
			}
		}
		out = append(out, predict.Render(s.Dict, s.Snap.Compiled.ForTuple(relation.NewTuple(items...)))...)
	}
	sortRecommendations(out)
	return r.limit(out)
}

// sortRecommendations orders merged recommendations deterministically: by
// tuple, then annotation token. (Not sort.Slice: boxing the empty non-nil
// slice most reads produce would allocate on every request.)
func sortRecommendations(recs []predict.TokenRecommendation) {
	slices.SortFunc(recs, func(a, b predict.TokenRecommendation) int {
		return cmp.Or(cmp.Compare(a.Tuple, b.Tuple), strings.Compare(a.Annotation, b.Annotation))
	})
}

// limit applies the configured recommendation cap to a merged result, in
// the router's deterministic (tuple, annotation token) order. Shards are
// compiled uncapped (see FromEngines), so the cap selects from the full
// merged set and keeps the same prefix at every shard count.
func (r *Router) limit(recs []predict.TokenRecommendation) []predict.TokenRecommendation {
	if l := r.cfg.Serve.Recommend.Limit; l > 0 && len(recs) > l {
		return recs[:l]
	}
	return recs
}

// ShardStats is one shard's serving statistics: an entry of the /stats
// per_shard array.
type ShardStats struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	serve.Stats
}

// Stats is the merged serving statistics of a Router, in the shape of the
// top-level /stats serving section: a one-shard router reports its scalars
// alone, with no Shards, SeqVector or PerShard.
type Stats struct {
	// SnapshotSeq is the sum of the per-shard snapshot sequences: the
	// publish sequence itself at one shard, a staleness indicator beside
	// the authoritative SeqVector at several.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Tuples is the merged generation's tuple count (the minimum per-shard
	// snapshot size; shards disagree only while an append is in flight).
	Tuples int `json:"tuples"`
	// RuleCount, RelVersion, LiveRelVersion, Staleness, Attachments and
	// DistinctAnnotations add the per-shard figures: the per-shard rule sets
	// are disjoint, and every (tuple, annotation) pair lives on exactly one
	// shard.
	RuleCount           int    `json:"rule_count"`
	RelVersion          uint64 `json:"rel_version"`
	LiveRelVersion      uint64 `json:"live_rel_version"`
	Staleness           uint64 `json:"staleness"`
	Attachments         int    `json:"attachments"`
	DistinctAnnotations int    `json:"distinct_annotations"`
	// Requests, Batches, Coalesced, Reads and Shed add the per-shard serving
	// counters (see serve.Stats).
	Requests  uint64 `json:"requests"`
	Batches   uint64 `json:"batches"`
	Coalesced uint64 `json:"coalesced"`
	Reads     uint64 `json:"reads"`
	Shed      uint64 `json:"shed"`
	// Latency is the cross-shard per-stage latency digest (the shards share
	// one recorder; see FromEngines).
	Latency serve.LatencyStats `json:"latency"`
	// Remines adds the per-shard engine re-mine fallbacks.
	Remines int `json:"remines"`
	// Shards is the shard count, SeqVector the per-shard snapshot sequence
	// vector and PerShard each shard's own statistics; all three are empty
	// at one shard.
	Shards    int          `json:"shards,omitempty"`
	SeqVector []uint64     `json:"seq_vector,omitempty"`
	PerShard  []ShardStats `json:"per_shard,omitempty"`
}

// Stats merges every shard's serving statistics.
func (r *Router) Stats() Stats {
	var out Stats
	for s, sh := range r.shards {
		st := sh.srv.Stats()
		if s == 0 || st.Tuples < out.Tuples {
			out.Tuples = st.Tuples
		}
		out.SnapshotSeq += st.SnapshotSeq
		out.RuleCount += st.RuleCount
		out.RelVersion += st.RelVersion
		out.LiveRelVersion += st.LiveRelVersion
		out.Staleness += st.Staleness
		out.Attachments += st.Attachments
		out.DistinctAnnotations += st.DistinctAnnotations
		out.Requests += st.Requests
		out.Batches += st.Batches
		out.Coalesced += st.Coalesced
		out.Reads += st.Reads
		out.Shed += st.Shed
		out.Remines += st.Remines
		out.Latency = st.Latency // the recorder is shared: any digest is the aggregate
		out.SeqVector = append(out.SeqVector, st.SnapshotSeq)
		out.PerShard = append(out.PerShard, ShardStats{Shard: s, Stats: st})
	}
	if len(r.shards) == 1 {
		out.SeqVector, out.PerShard = nil, nil
	} else {
		out.Shards = len(r.shards)
	}
	return out
}
