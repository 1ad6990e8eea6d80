package wal

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/serve"
	"annotadb/internal/storage"
	"annotadb/internal/workload"
)

// --- token-level workload steps ------------------------------------------
//
// The property test needs the same workload applied to independent stores
// whose dictionaries evolve separately, so steps carry tokens, not interned
// items, exactly like log records do.

type stepKind uint8

const (
	stepAddAnnotations stepKind = iota
	stepRemoveAnnotations
	stepAddTuples
)

type step struct {
	kind    stepKind
	updates []Update
	tuples  []TupleSpec
}

// generateSteps builds a shuffled mix of Case 1/2/3/removal batches against
// an evolving driver relation, rendered to tokens. Deterministic in seed.
func generateSteps(t testing.TB, seed int64, n int) []step {
	t.Helper()
	spec := workload.Default8K(seed)
	spec.Tuples = 300
	spec.DataDomain = 30
	spec.ValuesPerTuple = 4
	g, err := workload.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	driver, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dict := driver.Dictionary()
	rng := rand.New(rand.NewSource(seed + 1))
	var steps []step
	for len(steps) < n {
		switch rng.Intn(4) {
		case 0: // Case 3: attach annotations (half reinforcing planted rules)
			batch, err := g.AnnotationBatch(driver, 8+rng.Intn(8), 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := driver.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			steps = append(steps, step{kind: stepAddAnnotations, updates: renderUpdates(dict, batch)})
		case 1: // removal: detach existing attachments
			var pool []relation.AnnotationUpdate
			driver.Each(func(i int, tu relation.Tuple) bool {
				for _, a := range tu.Annots {
					pool = append(pool, relation.AnnotationUpdate{Index: i, Annotation: a})
				}
				return true
			})
			if len(pool) == 0 {
				continue
			}
			rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			batch := pool[:min(len(pool), 4+rng.Intn(6))]
			if _, _, err := driver.ApplyRemovals(batch); err != nil {
				t.Fatal(err)
			}
			steps = append(steps, step{kind: stepRemoveAnnotations, updates: renderUpdates(dict, batch)})
		case 2: // Case 1: annotated tuples
			tuples, err := g.AnnotatedTuples(dict, 4+rng.Intn(6))
			if err != nil {
				t.Fatal(err)
			}
			driver.Append(tuples...)
			steps = append(steps, step{kind: stepAddTuples, tuples: renderTuples(dict, tuples)})
		case 3: // Case 2: un-annotated tuples
			tuples, err := g.UnannotatedTuples(dict, 4+rng.Intn(6))
			if err != nil {
				t.Fatal(err)
			}
			driver.Append(tuples...)
			steps = append(steps, step{kind: stepAddTuples, tuples: renderTuples(dict, tuples)})
		}
	}
	return steps
}

func renderUpdates(dict *relation.Dictionary, batch []relation.AnnotationUpdate) []Update {
	out := make([]Update, len(batch))
	for i, u := range batch {
		out[i] = Update{Tuple: u.Index, Annotation: dict.Token(u.Annotation)}
	}
	return out
}

func renderTuples(dict *relation.Dictionary, tuples []relation.Tuple) []TupleSpec {
	out := make([]TupleSpec, len(tuples))
	for i, tu := range tuples {
		out[i] = TupleSpec{Values: append([]string(nil), dict.Tokens(tu.Data)...), Annotations: append([]string(nil), dict.Tokens(tu.Annots)...)}
	}
	return out
}

// --- harness: a durable serving stack driven by token steps --------------

type stack struct {
	store *Store
	srv   *serve.Server
}

// openStack opens the store in dir (bootstrapping the generated base
// relation on first open) and wraps it in a serving core with the store as
// its journal, mirroring the production wiring.
func openStack(t testing.TB, dir string, seed int64, opts Options) *stack {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts, testCfg(), incremental.Options{}, func() (*relation.Relation, error) {
		spec := workload.Default8K(seed)
		spec.Tuples = 300
		spec.DataDomain = 30
		spec.ValuesPerTuple = 4
		g, err := workload.NewGenerator(spec)
		if err != nil {
			return nil, err
		}
		return g.Generate()
	})
	if err != nil {
		t.Fatal(err)
	}
	return &stack{
		store: s,
		// Negative batch window: sequential submissions apply one to one,
		// so each step becomes exactly one log record.
		srv: serve.New(s.Engine(), serve.Config{BatchWindow: -1, Journal: s}),
	}
}

func (k *stack) apply(t testing.TB, st step) {
	t.Helper()
	ctx := context.Background()
	dict := k.store.Engine().Relation().Dictionary()
	var err error
	switch st.kind {
	case stepAddAnnotations, stepRemoveAnnotations:
		updates := make([]relation.AnnotationUpdate, len(st.updates))
		for i, u := range st.updates {
			it, ierr := dict.InternAnnotation(u.Annotation)
			if ierr != nil {
				t.Fatal(ierr)
			}
			updates[i] = relation.AnnotationUpdate{Index: u.Tuple, Annotation: it}
		}
		if st.kind == stepAddAnnotations {
			_, err = k.srv.AddAnnotations(ctx, updates)
		} else {
			_, err = k.srv.RemoveAnnotations(ctx, updates)
		}
	case stepAddTuples:
		tuples := make([]relation.Tuple, len(st.tuples))
		for i, spec := range st.tuples {
			tuples[i] = relation.MustTuple(dict, spec.Values, spec.Annotations)
		}
		_, err = k.srv.AddTuples(ctx, tuples)
	}
	if err != nil {
		t.Fatalf("apply step: %v", err)
	}
}

// crash stops the serving core and closes the store WITHOUT the final
// checkpoint a graceful shutdown would write: recovery must come from the
// last policy checkpoint plus the log.
func (k *stack) crash(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := k.srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := k.store.Close(); err != nil {
		t.Fatal(err)
	}
}

func (k *stack) rules() []string { return renderedRules(k.store.Engine()) }

// TestRecoveryEquivalenceProperty is the paper's exactness contract pushed
// through the durability layer: replaying any prefix of a shuffled
// Case 1/2/3/removal workload through a crash and reopen — including with a
// torn final record — then finishing the workload must yield exactly the
// rule view of the uninterrupted run, and the recovered state must pass the
// engine's full re-mine verification.
func TestRecoveryEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	const (
		seed  = 42
		steps = 12
	)
	workloadSteps := generateSteps(t, seed, steps)

	// Reference: the uninterrupted run.
	ref := openStack(t, t.TempDir(), seed, Options{CheckpointBytes: -1})
	for _, st := range workloadSteps {
		ref.apply(t, st)
	}
	want := ref.rules()
	ref.crash(t)
	if len(want) == 0 {
		t.Fatal("fixture produced no rules; the property would be vacuous")
	}

	cuts := []int{0, 1, steps / 3, steps / 2, steps - 1, steps}
	for _, cut := range cuts {
		for _, torn := range []bool{false, true} {
			if torn && cut == 0 {
				continue // no record to tear
			}
			name := fmt.Sprintf("cut=%d,torn=%v", cut, torn)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				k := openStack(t, dir, seed, Options{CheckpointBytes: -1})
				for _, st := range workloadSteps[:cut] {
					k.apply(t, st)
				}
				k.crash(t)
				if torn {
					// Shear a few bytes off the final record, as a crash
					// mid-append would.
					seg := newestSegment(t, dir)
					fi, err := os.Stat(seg)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.Truncate(seg, fi.Size()-3); err != nil {
						t.Fatal(err)
					}
				}
				k2 := openStack(t, dir, seed, Options{CheckpointBytes: -1})
				rec := k2.store.Recovery()
				if !rec.FromCheckpoint {
					t.Fatal("reopen did not recover from checkpoint")
				}
				survived := cut
				if torn {
					survived = cut - 1
					if !rec.TornTail {
						t.Error("torn tail not reported")
					}
				}
				if rec.Records != survived {
					t.Fatalf("recovered %d records, want %d", rec.Records, survived)
				}
				// The recovered state must be exactly what a full re-mine of
				// the recovered relation produces (invariants I1–I3 hold).
				if err := k2.store.Engine().Verify(); err != nil {
					t.Fatalf("recovered state fails re-mine verification: %v", err)
				}
				// Finish the workload: the torn batch was never acknowledged,
				// so the client retries it, then everything after.
				for _, st := range workloadSteps[survived:] {
					k2.apply(t, st)
				}
				if got := k2.rules(); !reflect.DeepEqual(got, want) {
					t.Errorf("final rules diverge from uninterrupted run:\ngot  %v\nwant %v", got, want)
				}
				k2.crash(t)
			})
		}
	}
}

// TestRecoveryEquivalenceAcrossCheckpoints runs the same workload with a
// checkpoint forced after every batch, so recovery exercises the
// checkpoint-install/log-truncate path at every boundary instead of log
// replay.
func TestRecoveryEquivalenceAcrossCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	const (
		seed  = 7
		steps = 8
	)
	workloadSteps := generateSteps(t, seed, steps)
	ref := openStack(t, t.TempDir(), seed, Options{CheckpointBytes: -1})
	for _, st := range workloadSteps {
		ref.apply(t, st)
	}
	want := ref.rules()
	ref.crash(t)

	dir := t.TempDir()
	for cut := 0; cut <= steps; cut++ {
		// Reopen at every boundary; CheckpointBytes 1 checkpoints after
		// every committed batch, so each reopen replays zero records.
		k := openStack(t, dir, seed, Options{CheckpointBytes: 1})
		if cut > 0 && k.store.Recovery().Records != 0 {
			t.Fatalf("cut %d: replayed %d records despite per-batch checkpoints", cut, k.store.Recovery().Records)
		}
		if err := k.store.Engine().Verify(); err != nil {
			t.Fatalf("cut %d: recovered state fails re-mine verification: %v", cut, err)
		}
		if cut < steps {
			k.apply(t, workloadSteps[cut])
		}
		k.crash(t)
	}
	k := openStack(t, dir, seed, Options{CheckpointBytes: 1})
	if got := k.rules(); !reflect.DeepEqual(got, want) {
		t.Errorf("final rules diverge from uninterrupted run:\ngot  %v\nwant %v", got, want)
	}
	k.crash(t)
}

// --- segment trim crash windows ------------------------------------------

// newestSegment returns the path of the newest write-ahead log segment of
// the data dir.
func newestSegment(t testing.TB, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(SegmentDir(dir), "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", SegmentDir(dir), err)
	}
	return segs[len(segs)-1] // names sort by first cursor
}

// readSegments maps each segment file name of the data dir to its bytes.
func readSegments(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	segs, err := filepath.Glob(filepath.Join(SegmentDir(dir), "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range segs {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	return out
}

// writerStore is a store driven the way the serving writer drives it —
// append the record, then apply it — without a serving core, so a test may
// capture and checkpoint between steps. Its log rotates every segBytes, so
// a handful of steps spans several segments (the size is not on disk; a
// reopen may pick another).
func writerStore(t testing.TB, dir string, seed int64, segBytes int64) *Store {
	t.Helper()
	k := openStack(t, dir, seed, Options{CheckpointBytes: -1})
	if err := k.srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := k.store
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := OpenSegmentedFrom(SegmentedOptions{Dir: SegmentDir(dir), Prefix: "wal", SegmentBytes: segBytes, RetainSegments: -1}, s.covered)
	if err != nil {
		t.Fatal(err)
	}
	s.log = log
	return s
}

// write appends and applies one workload step, as the serving writer would.
func write(t testing.TB, s *Store, st step) {
	t.Helper()
	rec := Record{Kind: KindAddAnnotations, Updates: st.updates, Tuples: st.tuples}
	switch st.kind {
	case stepRemoveAnnotations:
		rec.Kind = KindRemoveAnnotations
	case stepAddTuples:
		rec.Kind = KindAddTuples
	}
	if err := s.append(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.applyRecord(rec); err != nil {
		t.Fatal(err)
	}
}

// referenceRules is the rule view of the uninterrupted run of steps.
func referenceRules(t *testing.T, seed int64, steps []step) []string {
	t.Helper()
	ref := writerStore(t, t.TempDir(), seed, 0)
	for _, st := range steps {
		write(t, ref, st)
	}
	defer ref.Close()
	return renderedRules(ref.Engine())
}

// TestRecoveryCrashAfterInstallBeforeTrim crashes after a background
// checkpoint is installed and before the writer trims the segments it
// covers, while later records sit in the same and newer segments. The
// reopen replays exactly the records at or past the covered cursor, and the
// result equals the uninterrupted run's.
func TestRecoveryCrashAfterInstallBeforeTrim(t *testing.T) {
	const seed, steps = 11, 12
	workloadSteps := generateSteps(t, seed, steps)
	want := referenceRules(t, seed, workloadSteps)

	dir := t.TempDir()
	s := writerStore(t, dir, seed, 256)
	for _, st := range workloadSteps[:steps/2] {
		write(t, s, st)
	}
	ck, _ := s.capture() // what the background installer serializes
	for _, st := range workloadSteps[steps/2:] {
		write(t, s, st)
	}
	if n := s.log.Stats().Segments; n < 3 {
		t.Fatalf("the workload filled %d segments, want several", n)
	}
	if err := storage.WriteCheckpointFile(CheckpointPath(dir), ck); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // the crash: the trim never ran
		t.Fatal(err)
	}

	s2 := writerStore(t, dir, seed, 256)
	defer s2.Close()
	if rec := s2.Recovery(); !rec.FromCheckpoint || rec.Records != steps-steps/2 {
		t.Fatalf("recovery = %+v, want %d records replayed from the checkpoint", rec, steps-steps/2)
	}
	for _, seg := range s2.log.sealed {
		if seg.first+seg.records <= ck.CoveredCursor {
			t.Errorf("segment %s lies wholly below covered cursor %d but survived the open", filepath.Base(seg.path), ck.CoveredCursor)
		}
	}
	if got := renderedRules(s2.Engine()); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered rules diverge from the uninterrupted run:\ngot  %v\nwant %v", got, want)
	}
	if err := s2.Engine().Verify(); err != nil {
		t.Errorf("recovered state fails re-mine verification: %v", err)
	}
}

// TestRecoveryTrimCutShort puts back segments a finished trim deleted, as a
// crash part way through the deletions leaves them — including a lower
// segment with a gap below it, which deletions that reached the disk out of
// order leave. Open must finish the trim and succeed.
func TestRecoveryTrimCutShort(t *testing.T) {
	const seed, steps = 13, 10
	workloadSteps := generateSteps(t, seed, steps)
	want := referenceRules(t, seed, workloadSteps)

	dir := t.TempDir()
	s := writerStore(t, dir, seed, 256)
	for _, st := range workloadSteps {
		write(t, s, st)
	}
	before := readSegments(t, dir)
	if len(before) < 4 {
		t.Fatalf("the workload filled %d segments, want at least 4", len(before))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := readSegments(t, dir)
	if len(after) != 1 {
		t.Fatalf("checkpoint left %d segments, want the one empty active segment", len(after))
	}
	// Restore every trimmed segment but the oldest and the third: a lower
	// segment survives with a gap below it.
	names := make([]string, 0, len(before))
	for name := range before {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		if i == 0 || i == 2 {
			continue
		}
		if err := os.WriteFile(filepath.Join(SegmentDir(dir), name), before[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := writerStore(t, dir, seed, 256)
	defer s2.Close()
	if rec := s2.Recovery(); !rec.FromCheckpoint || rec.Records != 0 {
		t.Fatalf("recovery = %+v, want from-checkpoint with nothing to replay", rec)
	}
	if got := readSegments(t, dir); !reflect.DeepEqual(got, after) {
		t.Errorf("open left segments %v, want the finished trim's %v", keys(got), keys(after))
	}
	if got := renderedRules(s2.Engine()); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered rules diverge from the uninterrupted run:\ngot  %v\nwant %v", got, want)
	}
}

// TestRecoveryLogEndsBelowCoveredCursor reopens a directory whose
// checkpoint covers records the surviving log lost (an unsynced tail gone
// with the crash, before the trim). The log's next cursor is raised to the
// covered cursor, so a new record is not mistaken for a covered one at the
// next open.
func TestRecoveryLogEndsBelowCoveredCursor(t *testing.T) {
	const seed, steps = 17, 9
	workloadSteps := generateSteps(t, seed, steps+1)
	want := referenceRules(t, seed, workloadSteps)

	dir := t.TempDir()
	s := writerStore(t, dir, seed, 0)
	for _, st := range workloadSteps[:steps/2] {
		write(t, s, st)
	}
	lost := readSegments(t, dir) // the segment as the disk kept it
	for _, st := range workloadSteps[steps/2 : steps] {
		write(t, s, st)
	}
	covered := s.log.NextCursor()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name := range readSegments(t, dir) {
		if err := os.Remove(filepath.Join(SegmentDir(dir), name)); err != nil {
			t.Fatal(err)
		}
	}
	for name, b := range lost {
		if err := os.WriteFile(filepath.Join(SegmentDir(dir), name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := writerStore(t, dir, seed, 0)
	if rec := s2.Recovery(); rec.Records != 0 || s2.log.NextCursor() != covered || s2.HasPendingRecords() {
		t.Fatalf("recovery = %+v, next cursor %d: want nothing replayed and the next cursor raised to %d", rec, s2.log.NextCursor(), covered)
	}
	write(t, s2, workloadSteps[steps])
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := writerStore(t, dir, seed, 0)
	defer s3.Close()
	if rec := s3.Recovery(); rec.Records != 1 {
		t.Fatalf("reopen replayed %d records, want the 1 written after the raise", rec.Records)
	}
	if got := renderedRules(s3.Engine()); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered rules diverge from the uninterrupted run:\ngot  %v\nwant %v", got, want)
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- recovery benchmark --------------------------------------------------

// benchCfg mirrors the paper's conservative thresholds, matching the bench
// package's workload scale.
func benchCfg() mining.Config {
	return mining.Config{MinSupport: 0.4, MinConfidence: 0.8}
}

// benchStore seeds dir with a checkpointed engine over the bench workload.
func benchStore(b *testing.B, dir string, cfg mining.Config) {
	b.Helper()
	s, err := Open(Options{Dir: dir}, cfg, incremental.Options{}, func() (*relation.Relation, error) {
		g, err := workload.NewGenerator(workload.Default8K(1))
		if err != nil {
			return nil, err
		}
		return g.Generate()
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOpenFromCheckpoint measures reopen cost on the 8K bench
// workload: decoding the checkpoint and re-mining its relation. Support
// 0.4 is the paper's conservative threshold; at 0.05 the mine tracks far
// more patterns and rules, so the re-mine weighs more. Compare with
// BenchmarkOpenBootstrapMine, the first open of the same data, which
// mines and writes the initial checkpoint.
func BenchmarkOpenFromCheckpoint(b *testing.B) {
	for _, support := range []float64{0.4, 0.05} {
		b.Run(fmt.Sprintf("support=%g", support), func(b *testing.B) {
			cfg := benchCfg()
			cfg.MinSupport = support
			dir := b.TempDir()
			benchStore(b, dir, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Open(Options{Dir: dir}, cfg, incremental.Options{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if !s.Recovery().FromCheckpoint {
					b.Fatal("expected checkpoint recovery")
				}
				s.Close()
			}
		})
	}
}

// BenchmarkOpenBootstrapMine measures the full bootstrap: the mine and the
// initial checkpoint.
func BenchmarkOpenBootstrapMine(b *testing.B) {
	g, err := workload.NewGenerator(workload.Default8K(1))
	if err != nil {
		b.Fatal(err)
	}
	rel, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		clone := rel.Clone()
		b.StartTimer()
		s, err := Open(Options{Dir: dir}, benchCfg(), incremental.Options{}, func() (*relation.Relation, error) {
			return clone, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if s.Recovery().FromCheckpoint {
			b.Fatal("expected bootstrap")
		}
		s.Close()
	}
}

// BenchmarkCheckpointWriterPause contrasts what the serving writer stalls
// for per checkpoint on the 8K bench workload. Under background installs
// the writer pays only "capture" — pin the relation view (copy-on-write,
// O(1)) and copy the lifetime counters — while serialization, fsync, and the
// atomic rename happen off the writer goroutine. "sync-full" is the price
// of the whole synchronous checkpoint, which the pre-view implementation
// charged to the writer (and, worse, serialized under the relation's read
// lock). A single annotation toggle between iterations keeps the engine
// state moving, as a real writer would.
func BenchmarkCheckpointWriterPause(b *testing.B) {
	open := func(b *testing.B) *Store {
		b.Helper()
		s, err := Open(Options{Dir: b.TempDir()}, benchCfg(), incremental.Options{}, func() (*relation.Relation, error) {
			g, err := workload.NewGenerator(workload.Default8K(1))
			if err != nil {
				return nil, err
			}
			return g.Generate()
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		return s
	}
	toggle := func(b *testing.B, s *Store, i int) {
		b.Helper()
		dict := s.Engine().Relation().Dictionary()
		a, err := dict.InternAnnotation("Annot_pause")
		if err != nil {
			b.Fatal(err)
		}
		u := []relation.AnnotationUpdate{{Index: i % 100, Annotation: a}}
		if i%2 == 0 {
			_, err = s.Engine().AddAnnotations(u)
		} else {
			_, err = s.Engine().RemoveAnnotations(u)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("capture", func(b *testing.B) {
		s := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			toggle(b, s, i)
			if ck, _ := s.capture(); ck.Relation.Len() == 0 {
				b.Fatal("empty capture")
			}
		}
	})
	b.Run("sync-full", func(b *testing.B) {
		s := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			toggle(b, s, i)
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
