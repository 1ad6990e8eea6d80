package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/relation"
	"annotadb/internal/serve"
	"annotadb/internal/wal"
)

// clusterStack is one durable sharded serving stack: the cluster and the
// router wired through its per-shard journals.
type clusterStack struct {
	cluster *Cluster
	router  *Router
}

// openCluster opens (or reopens) a durable sharded stack in dir. First open
// bootstraps the deterministic base world; CheckpointBytes defaults to -1
// (no policy checkpoints) unless overridden via wopts.
func openCluster(t testing.TB, dir string, n int, seed int64, wopts wal.Options) *clusterStack {
	t.Helper()
	c, err := OpenDurable(DurableOptions{Dir: dir, Shards: n, Wal: wopts},
		testCfg(), incremental.Options{}, func() (*relation.Relation, error) {
			return buildBase(seed, 250), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	r, err := FromEngines(c.Engines(), Config{
		Shards:   n,
		Serve:    serve.Config{BatchWindow: -1},
		Journals: c.Journals(),
	})
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	return &clusterStack{cluster: c, router: r}
}

// crash stops the writers and closes the raw stores WITHOUT final
// checkpoints and WITHOUT the manifest rewrite a clean Close performs:
// recovery must come from the per-shard checkpoints plus log tails.
func (k *clusterStack) crash(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := k.router.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for _, st := range k.cluster.Stores() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// shutdown is the clean path: drain, final checkpoints, manifest rewrite.
func (k *clusterStack) shutdown(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := k.router.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := k.cluster.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := k.cluster.Close(); err != nil {
		t.Fatal(err)
	}
}

func (k *clusterStack) verifyAll(t testing.TB) {
	t.Helper()
	engines := k.router.Engines()
	for s, eng := range engines {
		if l := eng.Relation().Len(); l != engines[0].Relation().Len() {
			t.Fatalf("shard %d holds %d tuples, shard 0 holds %d: incoherent replicas", s, l, engines[0].Relation().Len())
		}
		if err := eng.Verify(); err != nil {
			t.Fatalf("shard %d fails re-mine verification: %v", s, err)
		}
	}
}

// tearLogTail shears a few bytes off one shard's newest log segment, as a
// crash mid-append would. Returns false when that segment holds no records
// to tear.
func tearLogTail(t testing.TB, dir string, s int) bool {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(wal.SegmentDir(ShardDir(dir, s)), "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("shard %d has no log segments (%v)", s, err)
	}
	path := segs[len(segs)-1] // names sort by first cursor
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= 16+3 { // header + margin: nothing meaningful to tear
		return false
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestShardedCrashRecoveryMatrix is the crash-recovery matrix for the
// sharded durable store: kill and reopen at every step boundary, with and
// without a torn tail in one shard's WAL, and require per-shard
// recovery-equivalence (each shard passes a full re-mine of its recovered
// projection) plus a coherent merged snapshot (equal replica lengths);
// finishing the workload after recovery must land on exactly the
// uninterrupted run's merged state.
func TestShardedCrashRecoveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	const (
		seed   = 17
		shards = 4
		nsteps = 10
	)
	base := buildBase(seed, 250)
	steps := generateSteps(t, base, seed+1, nsteps)

	// Reference: the uninterrupted (in-memory) run.
	refRouter := mustRouter(t, buildBase(seed, 250), shards, Config{Serve: serve.Config{BatchWindow: -1}})
	for _, st := range steps {
		applyRouter(t, refRouter, st)
	}
	want := mergedValid(refRouter)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := refRouter.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture produced no rules; the matrix would be vacuous")
	}

	for cut := 0; cut <= nsteps; cut++ {
		for _, torn := range []bool{false, true} {
			if torn && (cut == 0 || steps[cut-1].kind == stepAddAnnotatedTuples || steps[cut-1].kind == stepAddUnannotatedTuples) {
				// Tuple-append records fan out to every shard; tearing one
				// shard's copy is the append-fanout crash, covered by
				// TestShardedAppendFanoutCrash (re-applying the step would
				// double-append on the shards that kept it).
				continue
			}
			name := fmt.Sprintf("cut=%d,torn=%v", cut, torn)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				k := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
				for _, st := range steps[:cut] {
					applyRouter(t, k.router, st)
				}
				k.crash(t)
				tornApplied := false
				if torn {
					// The last step was an annotation batch: it landed on one
					// or more owning shards. Tear the tail of the first shard
					// whose log holds records; that shard loses its share of
					// the (unacknowledged) final batch.
					for s := 0; s < shards; s++ {
						if tearLogTail(t, dir, s) {
							tornApplied = true
							break
						}
					}
				}
				k2 := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
				rec := k2.cluster.Recovery()
				if !rec.FromCheckpoint {
					t.Fatal("reopen did not recover from checkpoints")
				}
				if tornApplied && !rec.TornTail {
					t.Error("torn tail not reported")
				}
				k2.verifyAll(t)
				// Finish the workload. A torn annotation batch was never
				// acknowledged, so the client retries it (duplicate
				// attachments on the shards that kept it are skipped), then
				// everything after.
				resume := cut
				if tornApplied {
					resume = cut - 1
				}
				for _, st := range steps[resume:] {
					applyRouter(t, k2.router, st)
				}
				k2.verifyAll(t)
				if got := mergedValid(k2.router); !reflect.DeepEqual(got, want) {
					t.Errorf("final merged rules diverge from uninterrupted run:\ngot  %v\nwant %v", got, want)
				}
				k2.shutdown(t)
			})
		}
	}
}

// TestShardedCheckpointSkewRecovery crashes with a checkpoint installed in
// one shard but not the others: shard 0 recovers from its newer checkpoint
// (zero records replayed), the rest replay their full logs, and the merged
// state must still equal the uninterrupted run — per-shard epochs are
// allowed to diverge because no acknowledged write spans shards.
func TestShardedCheckpointSkewRecovery(t *testing.T) {
	const (
		seed   = 23
		shards = 4
		nsteps = 8
	)
	base := buildBase(seed, 250)
	steps := generateSteps(t, base, seed+1, nsteps)

	refRouter := mustRouter(t, buildBase(seed, 250), shards, Config{Serve: serve.Config{BatchWindow: -1}})
	for _, st := range steps {
		applyRouter(t, refRouter, st)
	}
	want := mergedValid(refRouter)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := refRouter.Close(ctx); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	k := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
	for _, st := range steps {
		applyRouter(t, k.router, st)
	}
	// Drain the writers, then checkpoint shard 0 alone — the state a crash
	// between per-shard checkpoint installs leaves behind.
	cctx, ccancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer ccancel()
	if err := k.router.Close(cctx); err != nil {
		t.Fatal(err)
	}
	if k.cluster.Stores()[0].HasPendingRecords() {
		if err := k.cluster.Stores()[0].Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	epoch0 := k.cluster.Stores()[0].Epoch()
	for _, st := range k.cluster.Stores() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	k2 := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
	defer k2.shutdown(t)
	stores := k2.cluster.Stores()
	if got := stores[0].Recovery().Records; got != 0 {
		t.Errorf("shard 0 replayed %d records despite its checkpoint", got)
	}
	if got := stores[0].Epoch(); got != epoch0 {
		t.Errorf("shard 0 reopened at epoch %d, want %d", got, epoch0)
	}
	replayed := 0
	for _, st := range stores[1:] {
		replayed += st.Recovery().Records
	}
	if replayed == 0 {
		t.Error("no lagging shard replayed anything; the skew scenario did not materialize")
	}
	k2.verifyAll(t)
	if got := mergedValid(k2.router); !reflect.DeepEqual(got, want) {
		t.Errorf("merged rules diverge after checkpoint-skew recovery:\ngot  %v\nwant %v", got, want)
	}
}

// TestShardedAppendFanoutCrash simulates a crash between the per-shard log
// writes of one tuple-append fan-out: one shard's copy of the append is
// torn away, so its replica reopens short. Recovery must pad the short
// replica from the longest one (data values only), restore equal lengths,
// log the repair durably (a second reopen replays it), and leave every
// shard exactly re-mine-verifiable.
func TestShardedAppendFanoutCrash(t *testing.T) {
	const (
		seed   = 29
		shards = 4
	)
	dir := t.TempDir()
	k := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
	ctx := context.Background()
	// One annotated append: the batch lands in every shard's log.
	if _, err := k.router.AddTuples(ctx, []TupleSpec{
		{Values: []string{"d1", "d2"}, Annotations: []string{"Annot_q:good", "Annot_src:db1"}},
		{Values: []string{"d5", "d6"}},
	}); err != nil {
		t.Fatal(err)
	}
	baseLen := k.router.Len()
	k.crash(t)
	if !tearLogTail(t, dir, 1) {
		t.Fatal("shard 1 log had no record to tear; fan-out did not reach it")
	}

	k2 := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
	rec := k2.cluster.Recovery()
	if rec.PaddedTuples != 2 {
		t.Errorf("recovery padded %d tuples, want 2", rec.PaddedTuples)
	}
	if got := k2.router.Len(); got != baseLen {
		t.Errorf("merged length after recovery = %d, want %d", got, baseLen)
	}
	k2.verifyAll(t)
	// The repair must itself be durable: crash again without checkpoints
	// and reopen — lengths still agree, nothing further to pad.
	k2.crash(t)
	k3 := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
	if rec := k3.cluster.Recovery(); rec.PaddedTuples != 0 {
		t.Errorf("second recovery padded %d tuples, want 0", rec.PaddedTuples)
	}
	if got := k3.router.Len(); got != baseLen {
		t.Errorf("merged length after second recovery = %d, want %d", got, baseLen)
	}
	k3.verifyAll(t)
	// The padded replica keeps serving writes: attach to a padded position.
	if _, err := k3.router.AddAnnotations(ctx, []Update{{Tuple: baseLen - 1, Annotation: "Annot_top:n1"}}); err != nil {
		t.Fatal(err)
	}
	k3.verifyAll(t)
	k3.shutdown(t)
}

// TestShardedManifestMatrix exercises the manifest's generation ties:
// a manifest written before the latest checkpoint (epochs behind reality)
// must be tolerated, a shard directory behind the manifest (restored from
// an older backup) must be refused, and so must a missing manifest over
// shard data, a shard-count mismatch, and a missing shard checkpoint.
func TestShardedManifestMatrix(t *testing.T) {
	const (
		seed   = 31
		shards = 2
	)
	newCluster := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		k := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
		if _, err := k.router.AddAnnotations(context.Background(), []Update{
			{Tuple: 0, Annotation: "Annot_q:n1"},
			{Tuple: 1, Annotation: "Annot_top:n1"},
		}); err != nil {
			t.Fatal(err)
		}
		k.shutdown(t)
		return dir
	}
	reopen := func(dir string, n int) error {
		c, err := OpenDurable(DurableOptions{Dir: dir, Shards: n, Wal: wal.Options{CheckpointBytes: -1}},
			testCfg(), incremental.Options{}, nil)
		if err == nil {
			c.Close()
		}
		return err
	}
	editManifest := func(t *testing.T, dir string, edit func(m *manifest)) {
		t.Helper()
		m, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		edit(m)
		if err := writeManifest(dir, m); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("manifest-behind-checkpoint-tolerated", func(t *testing.T) {
		dir := newCluster(t)
		// Simulate "crash before the manifest rewrite": record epochs lower
		// than the stores actually hold. The floor check must pass and the
		// next clean cycle must re-advance them.
		editManifest(t, dir, func(m *manifest) {
			for i := range m.Epochs {
				m.Epochs[i] = 0
			}
		})
		if err := reopen(dir, shards); err != nil {
			t.Fatalf("manifest behind reality must be tolerated, got: %v", err)
		}
		m, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		for s, e := range m.Epochs {
			if e == 0 {
				t.Errorf("shard %d epoch not re-advanced in manifest", s)
			}
		}
	})

	t.Run("shard-rolled-back-refused", func(t *testing.T) {
		dir := newCluster(t)
		editManifest(t, dir, func(m *manifest) { m.Epochs[1] += 5 })
		err := reopen(dir, shards)
		if err == nil || !strings.Contains(err.Error(), "rolled back") {
			t.Fatalf("rolled-back shard dir not refused: %v", err)
		}
	})

	t.Run("missing-manifest-refused", func(t *testing.T) {
		dir := newCluster(t)
		if err := os.Remove(ManifestPath(dir)); err != nil {
			t.Fatal(err)
		}
		err := reopen(dir, shards)
		if err == nil || !strings.Contains(err.Error(), "no manifest") {
			t.Fatalf("manifest-less shard data not refused: %v", err)
		}
	})

	t.Run("shard-count-mismatch-refused", func(t *testing.T) {
		dir := newCluster(t)
		err := reopen(dir, shards+1)
		if err == nil || !strings.Contains(err.Error(), "re-sharding") {
			t.Fatalf("shard-count mismatch not refused: %v", err)
		}
	})

	t.Run("missing-shard-checkpoint-refused", func(t *testing.T) {
		dir := newCluster(t)
		if err := os.Remove(wal.CheckpointPath(ShardDir(dir, 1))); err != nil {
			t.Fatal(err)
		}
		err := reopen(dir, shards)
		if err == nil || !strings.Contains(err.Error(), "no checkpoint") {
			t.Fatalf("missing shard checkpoint not refused: %v", err)
		}
	})

	t.Run("corrupt-manifest-refused", func(t *testing.T) {
		dir := newCluster(t)
		if err := os.WriteFile(ManifestPath(dir), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := reopen(dir, shards); err == nil {
			t.Fatal("corrupt manifest not refused")
		}
	})

	t.Run("manifest-format-pinned", func(t *testing.T) {
		// The manifest is part of the on-disk format: field names are load-
		// bearing for forward compatibility.
		dir := newCluster(t)
		raw, err := os.ReadFile(ManifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"version", "shards", "family_separator", "epochs"} {
			if _, ok := m[key]; !ok {
				t.Errorf("manifest missing %q field: %s", key, raw)
			}
		}
	})
}

// TestShardedCleanReopen is the happy path: a clean shutdown writes final
// checkpoints, so the next open replays nothing and serves the same merged
// rules.
func TestShardedCleanReopen(t *testing.T) {
	const (
		seed   = 37
		shards = 4
	)
	dir := t.TempDir()
	k := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
	steps := generateSteps(t, buildBase(seed, 250), seed+1, 6)
	for _, st := range steps {
		applyRouter(t, k.router, st)
	}
	want := mergedValid(k.router)
	k.shutdown(t)

	k2 := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
	defer k2.shutdown(t)
	rec := k2.cluster.Recovery()
	if !rec.FromCheckpoint || rec.Records != 0 {
		t.Errorf("clean reopen: FromCheckpoint=%v Records=%d, want true/0", rec.FromCheckpoint, rec.Records)
	}
	if got := mergedValid(k2.router); !reflect.DeepEqual(got, want) {
		t.Errorf("merged rules diverge after clean reopen:\ngot  %v\nwant %v", got, want)
	}
	k2.verifyAll(t)
}

// TestShardedBootstrapCrashRecoverable pins the bootstrap sentinel: a first
// bootstrap that crashed after writing shard state but before installing
// the manifest leaves the in-progress marker, and the next open wipes the
// partial state and bootstraps cleanly instead of refusing forever. Without
// the marker, the same shape (shard data, no manifest) stays refused.
func TestShardedBootstrapCrashRecoverable(t *testing.T) {
	const (
		seed   = 41
		shards = 2
	)
	dir := t.TempDir()
	k := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
	want := mergedValid(k.router)
	k.shutdown(t)

	// Simulate the crash: shard checkpoints exist, manifest never landed,
	// sentinel still present.
	if err := os.Remove(ManifestPath(dir)); err != nil {
		t.Fatal(err)
	}
	if err := writeBootstrapSentinel(dir); err != nil {
		t.Fatal(err)
	}
	k2 := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
	if k2.cluster.Recovery().FromCheckpoint {
		t.Error("interrupted bootstrap was not redone from scratch")
	}
	if hasBootstrapSentinel(dir) {
		t.Error("bootstrap sentinel not cleared after a completed open")
	}
	if got := mergedValid(k2.router); !reflect.DeepEqual(got, want) {
		t.Errorf("re-bootstrap diverged from the original:\ngot  %v\nwant %v", got, want)
	}
	k2.verifyAll(t)
	k2.shutdown(t)

	// The recovered cluster reopens normally (manifest installed).
	k3 := openCluster(t, dir, shards, seed, wal.Options{CheckpointBytes: -1})
	if !k3.cluster.Recovery().FromCheckpoint {
		t.Error("cluster did not recover from checkpoints after sentinel cleanup")
	}
	k3.shutdown(t)
}
