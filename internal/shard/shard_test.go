package shard

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/itemset"
	"annotadb/internal/predict"
	"annotadb/internal/relation"
	"annotadb/internal/serve"
	"annotadb/internal/wal"
)

func TestShardOf(t *testing.T) {
	if got := ShardOf("Annot_anything", 1); got != 0 {
		t.Errorf("ShardOf with 1 shard = %d, want 0", got)
	}
	// Same family ⇒ same shard, at every count.
	for _, n := range []int{2, 3, 4, 8} {
		if a, b := ShardOf("Annot_src:db1", n), ShardOf("Annot_src:db2", n); a != b {
			t.Errorf("n=%d: members of one family routed to shards %d and %d", n, a, b)
		}
		for _, tok := range worldAnnots {
			s := ShardOf(tok, n)
			if s < 0 || s >= n {
				t.Errorf("n=%d: ShardOf(%q) = %d out of range", n, tok, s)
			}
		}
	}
	// The test vocabulary spreads over more than one shard at 4 — otherwise
	// the sharding tests would all be exercising one writer.
	used := make(map[int]bool)
	for _, tok := range worldAnnots {
		used[ShardOf(tok, 4)] = true
	}
	if len(used) < 2 {
		t.Fatalf("test vocabulary hashes to a single shard of 4: %v", used)
	}
}

func TestProjectPartitionsAnnotations(t *testing.T) {
	t.Parallel()
	const n = 4
	base := buildBase(5, 120)
	baseDict := base.Dictionary()
	baseStats := base.Stats()

	totalAttachments := 0
	for s := 0; s < n; s++ {
		proj, err := Project(base, s, n)
		if err != nil {
			t.Fatal(err)
		}
		if proj.Len() != base.Len() {
			t.Fatalf("shard %d projection has %d tuples, base %d", s, proj.Len(), base.Len())
		}
		dict := proj.Dictionary()
		proj.Each(func(i int, tu relation.Tuple) bool {
			orig, err := base.Tuple(i)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(tu.Data), len(orig.Data); got != want {
				t.Fatalf("shard %d tuple %d has %d data values, base %d", s, i, got, want)
			}
			for _, a := range tu.Annots {
				tok := dict.Token(a)
				if ShardOf(tok, n) != s {
					t.Fatalf("shard %d tuple %d carries %q, which belongs to shard %d", s, i, tok, ShardOf(tok, n))
				}
				if !orig.Annots.Contains(mustLookup(t, baseDict, tok)) {
					t.Fatalf("shard %d tuple %d carries %q, absent from the base tuple", s, i, tok)
				}
			}
			return true
		})
		totalAttachments += proj.Stats().Annotations
	}
	if totalAttachments != baseStats.Annotations {
		t.Errorf("projections hold %d attachments in total, base has %d", totalAttachments, baseStats.Annotations)
	}
}

func mustLookup(t testing.TB, dict *relation.Dictionary, tok string) itemset.Item {
	t.Helper()
	v, ok := dict.Lookup(tok)
	if !ok {
		t.Fatalf("token %q not in dictionary", tok)
	}
	return v
}

func TestRouterValidationAndEmptyBatches(t *testing.T) {
	t.Parallel()
	router := mustRouter(t, buildBase(7, 60), 2, Config{Serve: serve.Config{BatchWindow: -1}})
	defer closeRouter(t, router)
	ctx := context.Background()

	if _, err := router.AddAnnotations(ctx, []Update{{Tuple: 999, Annotation: "Annot_q:n1"}}); !errors.Is(err, relation.ErrTupleIndex) {
		t.Errorf("out-of-range index: err = %v, want ErrTupleIndex", err)
	}
	if _, err := router.AddAnnotations(ctx, []Update{{Tuple: 0, Annotation: ""}}); err == nil {
		t.Error("empty annotation token accepted")
	}
	if _, err := router.RemoveAnnotations(ctx, []Update{{Tuple: 0, Annotation: "Annot_never_seen"}}); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("removal of unknown token: err = %v, want unknown-token error", err)
	}
	if _, err := router.RemoveAnnotations(ctx, []Update{{Tuple: 0, Annotation: "d1"}}); err == nil {
		t.Error("removal of a data token accepted")
	}
	for _, f := range []func() (*incremental.Report, error){
		func() (*incremental.Report, error) { return router.AddAnnotations(ctx, nil) },
		func() (*incremental.Report, error) { return router.RemoveAnnotations(ctx, nil) },
		func() (*incremental.Report, error) { return router.AddTuples(ctx, nil) },
	} {
		rep, err := f()
		if err != nil || rep == nil {
			t.Errorf("empty batch: rep=%v err=%v", rep, err)
		}
	}
	// A rejected batch must not have touched any shard.
	if got := router.Stats().Requests; got != 0 {
		t.Errorf("rejected/empty batches reached shard writers: %d requests", got)
	}
}

// A logged removal replays as a skip even for a token the replayer has never
// interned (the primary can hold one no record carries); the same request
// from a client is still refused, and a logged removal of a data value or an
// unknown record kind still fails.
func TestRouterReplayToleratesUnknownRemoval(t *testing.T) {
	t.Parallel()
	router := mustRouter(t, buildBase(7, 60), 2, Config{Serve: serve.Config{BatchWindow: -1}})
	defer closeRouter(t, router)
	ctx := context.Background()
	ghost := []Update{{Tuple: 0, Annotation: "Annot_ghost:1"}}

	if _, err := router.RemoveAnnotations(ctx, ghost); err == nil {
		t.Fatal("a client's removal of an unknown token was accepted")
	}
	before := router.Stats()
	if err := router.Replay(ctx, wal.Record{Kind: wal.KindRemoveAnnotations, Updates: ghost}); err != nil {
		t.Fatalf("replaying a logged removal of an unknown token: %v", err)
	}
	after := router.Stats()
	if after.Attachments != before.Attachments || after.Requests != before.Requests+1 {
		t.Errorf("replayed removal: attachments %d → %d, requests %d → %d; want a one-request no-op",
			before.Attachments, after.Attachments, before.Requests, after.Requests)
	}
	if _, err := router.RemoveAnnotations(ctx, ghost); err != nil {
		t.Errorf("the replayed token was not interned: %v", err)
	}
	if err := router.Replay(ctx, wal.Record{Kind: wal.KindRemoveAnnotations, Updates: []Update{{Tuple: 0, Annotation: "d1"}}}); err == nil {
		t.Error("replayed removal of a data value accepted")
	}
	if err := router.Replay(ctx, wal.Record{Kind: wal.Kind(99)}); err == nil {
		t.Error("replay of an unknown record kind accepted")
	}
	if err := router.Replay(ctx, wal.Record{Kind: wal.KindAddAnnotations, Updates: ghost}); err != nil {
		t.Errorf("replayed add: %v", err)
	}
	if got := router.Stats().Attachments; got != before.Attachments+1 {
		t.Errorf("replayed add: attachments = %d, want %d", got, before.Attachments+1)
	}
}

func TestRouterWriteRoutingAndStats(t *testing.T) {
	t.Parallel()
	const n = 4
	router := mustRouter(t, buildBase(9, 80), n, Config{Serve: serve.Config{BatchWindow: -1}})
	defer closeRouter(t, router)
	ctx := context.Background()

	before := router.Stats()
	// A single-family batch must cost exactly one shard's writer.
	rep, err := router.AddAnnotations(ctx, []Update{
		{Tuple: 3, Annotation: "Annot_top:n1"},
		{Tuple: 4, Annotation: "Annot_top:n2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied+rep.Skipped != 2 {
		t.Errorf("Applied+Skipped = %d, want 2", rep.Applied+rep.Skipped)
	}
	after := router.Stats()
	if got := after.Requests - before.Requests; got != 1 {
		t.Errorf("single-family batch touched %d shard writers, want 1", got)
	}
	owner := ShardOf("Annot_top:n1", n)
	bumped := 0
	for s := range after.Seqs {
		if after.Seqs[s] > before.Seqs[s] {
			bumped++
			if s != owner {
				t.Errorf("shard %d republished for a family owned by shard %d", s, owner)
			}
		}
	}
	if bumped != 1 {
		t.Errorf("%d shards republished for a single-family batch, want 1", bumped)
	}

	// A tuple append bumps every shard and keeps replicas in step.
	lenBefore := router.Len()
	if _, err := router.AddTuples(ctx, []TupleSpec{{Values: []string{"d1", "d2"}, Annotations: []string{"Annot_q:good", "Annot_top:n1"}}}); err != nil {
		t.Fatal(err)
	}
	if got := router.Len(); got != lenBefore+1 {
		t.Errorf("merged length = %d, want %d", got, lenBefore+1)
	}
	final := router.Stats()
	for s := range final.Seqs {
		if final.Seqs[s] <= after.Seqs[s] {
			t.Errorf("shard %d did not republish after a tuple append", s)
		}
	}
	if final.N != lenBefore+1 {
		t.Errorf("merged stats N = %d, want %d", final.N, lenBefore+1)
	}
}

func TestRouterRecommendIncomingAndLimit(t *testing.T) {
	t.Parallel()
	base := buildBase(13, 300)
	router := mustRouter(t, base, 4, Config{Serve: serve.Config{BatchWindow: -1}})
	defer closeRouter(t, router)

	// The planted D2A rule {d1,d2} ⇒ Annot_q:good must fire on an incoming
	// bare {d1,d2} tuple.
	recs := router.RecommendIncoming(TupleSpec{Values: []string{"d1", "d2"}})
	found := false
	for _, r := range recs {
		if r.Annotation == "Annot_q:good" {
			found = true
		}
		if r.Tuple != -1 {
			t.Errorf("incoming recommendation stamped tuple %d, want -1", r.Tuple)
		}
	}
	if !found {
		t.Errorf("incoming {d1,d2} did not draw Annot_q:good: %+v", recs)
	}

	limited := mustRouter(t, buildBase(13, 300), 4, Config{
		Serve: serve.Config{BatchWindow: -1, Recommend: predict.Options{Limit: 1}},
	})
	defer closeRouter(t, limited)
	if got := limited.RecommendIncoming(TupleSpec{Values: []string{"d1", "d2"}}); len(got) > 1 {
		t.Errorf("merged recommendations exceed Limit 1: %d", len(got))
	}
}

func closeRouter(t testing.TB, r *Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Errorf("close router: %v", err)
	}
}

// TestRouterLatchesOnReplicaDivergence pins the partial-fanout safety
// latch: once the replicas disagree on length (a fan-out that applied on
// some shards only), every write is refused with ErrReplicasDiverged while
// reads keep serving.
func TestRouterLatchesOnReplicaDivergence(t *testing.T) {
	t.Parallel()
	router := mustRouter(t, buildBase(15, 60), 2, Config{Serve: serve.Config{BatchWindow: -1}})
	defer closeRouter(t, router)
	ctx := context.Background()

	if err := router.Err(); err != nil {
		t.Fatalf("healthy router reports Err() = %v", err)
	}
	cause := errors.New("boom")
	router.failed.CompareAndSwap(nil, &cause)

	// The health-probe surface reports the latch with its cause.
	if err := router.Err(); !errors.Is(err, ErrReplicasDiverged) || !errors.Is(err, cause) {
		t.Errorf("Err() after latch = %v, want ErrReplicasDiverged wrapping %v", err, cause)
	}
	if _, err := router.AddTuples(ctx, []TupleSpec{{Values: []string{"d1"}}}); !errors.Is(err, ErrReplicasDiverged) {
		t.Errorf("AddTuples after latch: err = %v, want ErrReplicasDiverged", err)
	}
	if _, err := router.AddAnnotations(ctx, []Update{{Tuple: 0, Annotation: "Annot_q:n1"}}); !errors.Is(err, ErrReplicasDiverged) {
		t.Errorf("AddAnnotations after latch: err = %v, want ErrReplicasDiverged", err)
	}
	if _, err := router.RemoveAnnotations(ctx, []Update{{Tuple: 0, Annotation: "Annot_q:n1"}}); !errors.Is(err, ErrReplicasDiverged) {
		t.Errorf("RemoveAnnotations after latch: err = %v, want ErrReplicasDiverged", err)
	}
	// Reads stay valid against the published snapshots.
	if _, _, err := router.Recommend(0); err != nil {
		t.Errorf("read after latch failed: %v", err)
	}
	if rules, _ := router.Rules(); len(rules) == 0 {
		t.Error("no rules served after latch")
	}
}

// gatedJournal blocks every Log* call until release is closed, pinning a
// shard writer mid-batch so requests queue behind it deterministically.
type gatedJournal struct {
	gate    chan struct{} // receives one token per Log* call entered
	release chan struct{}
}

func (j *gatedJournal) block() {
	j.gate <- struct{}{}
	<-j.release
}

func (j *gatedJournal) LogAnnotations([]relation.AnnotationUpdate, bool) error { j.block(); return nil }
func (j *gatedJournal) LogTuples([]relation.Tuple) error                       { j.block(); return nil }
func (j *gatedJournal) Committed() error                                       { return nil }

// The append order lock exists to keep several replicas in step. A one-shard
// router must not take it: held across the commit, it would hand concurrent
// appends to the writer one at a time — one application and one log sync
// each — where the writer alone coalesces those that queue behind a busy
// batch into one application. The writer is held in the journal append of
// a first append while the others are submitted.
func TestOneShardRouterCoalescesConcurrentAppends(t *testing.T) {
	t.Parallel()
	j := &gatedJournal{gate: make(chan struct{}, 16), release: make(chan struct{})}
	router := mustRouter(t, buildBase(23, 60), 1, Config{Journals: []serve.Journal{j}})
	defer closeRouter(t, router)
	const appenders = 4
	before := router.Len()
	appendOne := func() {
		if _, err := router.AddTuples(context.Background(), []TupleSpec{{Values: []string{"d1", "d2"}, Annotations: []string{"Annot_q:n1"}}}); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		appendOne()
	}()
	select {
	case <-j.gate:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never reached the journal")
	}
	for i := 1; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			appendOne()
		}()
	}
	// Wait for the rest to be admitted to the writer's queue. Behind an
	// append lock they never are: release anyway and let the batch count
	// below report it.
	deadline := time.Now().Add(2 * time.Second)
	for router.Stats().Requests < appenders && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	close(j.release)
	wg.Wait()
	st := router.Stats()
	if got := router.Len() - before; got != appenders || st.Requests != appenders {
		t.Fatalf("%d tuples appended by %d requests, want %d", got, st.Requests, appenders)
	}
	if st.Batches >= st.Requests {
		t.Errorf("%d concurrent appends took %d engine applications: they queued up instead of coalescing", st.Requests, st.Batches)
	}
}

// TestRouterAppendNotSplitByCancel pins that a cancelled client context
// cannot split an append fan-out: admission is refused up front, and a
// fan-out that starts completes on every shard.
func TestRouterAppendNotSplitByCancel(t *testing.T) {
	t.Parallel()
	router := mustRouter(t, buildBase(19, 60), 2, Config{Serve: serve.Config{BatchWindow: -1}})
	defer closeRouter(t, router)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := router.AddTuples(ctx, []TupleSpec{{Values: []string{"d1"}}}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled admission: err = %v, want context.Canceled", err)
	}
	engines := router.Engines()
	if a, b := engines[0].Relation().Len(), engines[1].Relation().Len(); a != b {
		t.Errorf("replica lengths diverged after cancelled admission: %d vs %d", a, b)
	}
}
