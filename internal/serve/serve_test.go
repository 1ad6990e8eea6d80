package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/predict"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

func testCfg() mining.Config {
	return mining.Config{MinSupport: 0.3, MinConfidence: 0.7}
}

// fixture: the incremental package's 10-tuple world — {28,85}⇒Annot_1
// strong, Annot_5⇒Annot_1 moderate.
func fixture() *relation.Relation {
	return relation.FromTokens(
		[][]string{
			{"28", "85", "99"},
			{"28", "85", "12"},
			{"28", "85", "40"},
			{"28", "85", "41"},
			{"28", "85"},
			{"28", "41"},
			{"41", "85"},
			{"62", "12"},
			{"62", "40"},
			{"99", "12"},
		},
		[][]string{
			{"Annot_1", "Annot_5"},
			{"Annot_1", "Annot_5"},
			{"Annot_1", "Annot_5"},
			{"Annot_1"},
			{"Annot_1"},
			nil,
			{"Annot_5"},
			nil,
			nil,
			nil,
		},
	)
}

func mustServer(t *testing.T, rel *relation.Relation, mcfg mining.Config, cfg Config) (*Server, *incremental.Engine) {
	t.Helper()
	eng, err := incremental.New(rel, mcfg, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s, eng
}

func TestInitialSnapshotMatchesEngine(t *testing.T) {
	rel := fixture()
	s, eng := mustServer(t, rel, testCfg(), Config{})
	snap := s.Snapshot()
	if snap == nil {
		t.Fatal("nil initial snapshot")
	}
	if snap.Seq != 1 {
		t.Errorf("initial Seq = %d, want 1", snap.Seq)
	}
	if snap.N != rel.Len() {
		t.Errorf("snapshot N = %d, want %d", snap.N, rel.Len())
	}
	if diff := rules.Diff(snap.Rules.Thaw(), eng.Rules(), rel.Dictionary()); len(diff) != 0 {
		t.Fatalf("initial snapshot diverges from engine: %v", diff)
	}
}

func TestAddAnnotationsRefreshesSnapshot(t *testing.T) {
	rel := fixture()
	dict := rel.Dictionary()
	s, eng := mustServer(t, rel, testCfg(), Config{BatchWindow: -1})
	before := s.Snapshot()

	a1 := relation.MustAnnotation(dict, "Annot_1")
	rep, err := s.AddAnnotations(context.Background(), []relation.AnnotationUpdate{
		{Index: 5, Annotation: a1},
		{Index: 7, Annotation: a1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 2 {
		t.Errorf("Applied = %d, want 2", rep.Applied)
	}
	after := s.Snapshot()
	if after.Seq <= before.Seq {
		t.Errorf("snapshot Seq did not advance: %d -> %d", before.Seq, after.Seq)
	}
	if after.RelVersion <= before.RelVersion {
		t.Errorf("snapshot RelVersion did not advance: %d -> %d", before.RelVersion, after.RelVersion)
	}
	if diff := rules.Diff(after.Rules.Thaw(), eng.Rules(), dict); len(diff) != 0 {
		t.Fatalf("snapshot diverges from engine after update: %v", diff)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAddTuplesRoutesCases(t *testing.T) {
	rel := fixture()
	dict := rel.Dictionary()
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: -1})
	ctx := context.Background()

	// Pure data batch takes the Case 2 path.
	rep, err := s.AddTuples(ctx, []relation.Tuple{relation.MustTuple(dict, []string{"28", "85"}, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Case != incremental.CaseUnannotatedTuples {
		t.Errorf("unannotated batch ran %v, want Case 2", rep.Case)
	}

	// A batch with any annotated tuple takes the Case 1 path.
	rep, err = s.AddTuples(ctx, []relation.Tuple{
		relation.MustTuple(dict, []string{"62"}, nil),
		relation.MustTuple(dict, []string{"28", "85"}, []string{"Annot_1"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Case != incremental.CaseAnnotatedTuples {
		t.Errorf("annotated batch ran %v, want Case 1", rep.Case)
	}
	if got := s.Snapshot().N; got != 13 {
		t.Errorf("snapshot N = %d, want 13", got)
	}
}

func TestRemoveAnnotations(t *testing.T) {
	rel := fixture()
	dict := rel.Dictionary()
	s, eng := mustServer(t, rel, testCfg(), Config{BatchWindow: -1})
	a5 := relation.MustAnnotation(dict, "Annot_5")
	rep, err := s.RemoveAnnotations(context.Background(), []relation.AnnotationUpdate{
		{Index: 0, Annotation: a5},
		{Index: 9, Annotation: a5}, // absent: skipped, not an error
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 1 || rep.Skipped != 1 {
		t.Errorf("Applied/Skipped = %d/%d, want 1/1", rep.Applied, rep.Skipped)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRecommend(t *testing.T) {
	rel := fixture()
	dict := rel.Dictionary()
	s, _ := mustServer(t, rel, testCfg(), Config{})
	// Tuple 5 is {28,41} with no annotations; no {28}-only rule exists at
	// these thresholds, so pick tuple 6 {41,85}+Annot_5: the Annot_5⇒Annot_1
	// family may or may not be valid — assert against a compiled scan
	// instead of hardcoding, then spot-check one known case.
	snap := s.Snapshot()
	want := snap.Compiled.ScanRange(rel, 0, rel.Len())
	byTuple := make(map[int][]predict.Recommendation)
	for _, r := range want {
		byTuple[r.TupleIndex] = append(byTuple[r.TupleIndex], r)
	}
	for idx, wantRecs := range byTuple {
		got, _, err := s.Recommend(idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantRecs) {
			t.Fatalf("tuple %d: Recommend returned %d recs, scan found %d", idx, len(got), len(wantRecs))
		}
		for i := range got {
			if got[i].Annotation != wantRecs[i].Annotation || got[i].TupleIndex != idx {
				t.Fatalf("tuple %d: rec %d = %+v, want %+v", idx, i, got[i], wantRecs[i])
			}
		}
	}

	// Incoming-tuple trigger: {28,85} with no annotations must draw the
	// strong {28,85}⇒Annot_1 recommendation.
	tu := relation.MustTuple(dict, []string{"28", "85"}, nil)
	recs := s.Snapshot().Compiled.ForTuple(tu)
	found := false
	for _, r := range recs {
		if dict.Token(r.Annotation) == "Annot_1" {
			found = true
		}
	}
	if !found {
		t.Errorf("incoming {28,85} did not draw Annot_1: %v", recs)
	}

	if _, _, err := s.Recommend(10_000); err == nil {
		t.Error("Recommend with out-of-range index did not fail")
	}
}

func TestValidationRejectsBadUpdates(t *testing.T) {
	rel := fixture()
	dict := rel.Dictionary()
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: -1})
	ctx := context.Background()
	a1 := relation.MustAnnotation(dict, "Annot_1")

	if _, err := s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: 99, Annotation: a1}}); !errors.Is(err, relation.ErrTupleIndex) {
		t.Errorf("out-of-range index: err = %v, want ErrTupleIndex", err)
	}
	d := relation.MustData(dict, "28")
	if _, err := s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: 0, Annotation: d}}); err == nil {
		t.Error("data item accepted as annotation")
	}
	// Empty batches are answered without waking the writer.
	rep, err := s.AddAnnotations(ctx, nil)
	if err != nil || rep.Applied != 0 {
		t.Errorf("empty batch: rep=%+v err=%v", rep, err)
	}
	if got := s.Stats().Requests; got != 0 {
		t.Errorf("rejected/empty batches counted as requests: %d", got)
	}
}

func TestCloseSemantics(t *testing.T) {
	rel := fixture()
	dict := rel.Dictionary()
	eng, err := incremental.New(rel, testCfg(), incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{BatchWindow: -1})
	ctx := context.Background()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(ctx); err != nil { // idempotent
		t.Fatal(err)
	}
	a1 := relation.MustAnnotation(dict, "Annot_1")
	if _, err := s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: 5, Annotation: a1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: err = %v, want ErrClosed", err)
	}
	// Reads stay valid after close.
	if snap := s.Snapshot(); snap == nil || snap.Rules.Len() == 0 {
		t.Error("reads broken after close")
	}
}

// TestCoalescingMergesConcurrentWrites pins natural batching: writes that
// queue while the writer is busy ride its next engine application together.
// The writer is held in the journal append of a first write while the
// others queue, then released.
func TestCoalescingMergesConcurrentWrites(t *testing.T) {
	j := newGatedJournal()
	rel := fixture()
	dict := rel.Dictionary()
	s, eng := mustServer(t, rel, testCfg(), Config{Journal: j})
	a1 := relation.MustAnnotation(dict, "Annot_1")
	ctx := context.Background()

	first := make(chan error, 1)
	go func() {
		_, err := s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: 0, Annotation: a1}})
		first <- err
	}()
	select {
	case <-j.gate:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never reached the journal")
	}

	const writers = 8
	targets := []int{5, 6, 7, 8, 9, 5, 6, 7} // overlaps exercise dup-skip
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = s.AddAnnotations(ctx, []relation.AnnotationUpdate{
				{Index: targets[w], Annotation: a1},
			})
		}(w)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.reqs) < writers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d writes queued behind the held writer", len(s.reqs), writers)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(j.release)
	wg.Wait()
	if err := <-first; err != nil {
		t.Fatalf("held write: %v", err)
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	st := s.Stats()
	if st.Requests != writers+1 {
		t.Errorf("Requests = %d, want %d", st.Requests, writers+1)
	}
	if st.Batches != 2 || st.Coalesced != writers {
		t.Errorf("Batches = %d, Coalesced = %d: want the held write alone, then all %d queued writes in one application",
			st.Batches, st.Coalesced, writers)
	}
	// Every distinct target must now carry Annot_1.
	for _, idx := range []int{5, 6, 7, 8, 9} {
		tu, err := rel.Tuple(idx)
		if err != nil {
			t.Fatal(err)
		}
		if !tu.HasAnnotation(a1) {
			t.Errorf("tuple %d missing Annot_1 after coalesced batch", idx)
		}
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestLoneWriteDoesNotLinger pins that the writer never waits for company:
// however long the batch window, a lone write is applied and acknowledged
// at once.
func TestLoneWriteDoesNotLinger(t *testing.T) {
	rel := fixture()
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := s.AddAnnotations(ctx, oneUpdate(t, rel, 5)); err != nil {
		t.Fatalf("lone write under an hour-long batch window: %v", err)
	}
}

// buildWorld creates a deterministic pseudo-random relation with planted
// correlations so the thresholds used by the stress test and benchmarks
// yield a living rule set: tuples carrying data {1,2} almost always carry
// Annot_A, and Annot_B almost always co-occurs with Annot_C.
func buildWorld(seed int64, tuples int) (*relation.Relation, []itemset.Item) {
	rng := rand.New(rand.NewSource(seed))
	rel := relation.New()
	dict := rel.Dictionary()
	annots := make([]itemset.Item, 5)
	for i := range annots {
		annots[i] = relation.MustAnnotation(dict, "Annot_"+string(rune('A'+i)))
	}
	batch := make([]relation.Tuple, 0, tuples)
	for i := 0; i < tuples; i++ {
		batch = append(batch, randomTuple(rng, annots))
	}
	rel.Append(batch...)
	return rel, annots
}

func randomTuple(rng *rand.Rand, annots []itemset.Item) relation.Tuple {
	var items []itemset.Item
	if rng.Intn(2) == 0 {
		// Planted pattern: {1,2} ⇒ Annot_A (conf ≈ 0.9), with Annot_B and
		// Annot_C riding along often enough for an A2A family.
		items = append(items, itemset.DataItem(1), itemset.DataItem(2))
		if rng.Intn(10) != 0 {
			items = append(items, annots[0])
		}
		if rng.Intn(2) == 0 {
			items = append(items, annots[1])
			if rng.Intn(10) != 0 {
				items = append(items, annots[2])
			}
		}
	} else {
		for v := 0; v < 1+rng.Intn(4); v++ {
			items = append(items, itemset.DataItem(3+rng.Intn(6)))
		}
		for _, a := range annots[3:] {
			if rng.Intn(3) == 0 {
				items = append(items, a)
			}
		}
	}
	return relation.NewTuple(items...)
}

// TestStressReadersSeeConsistentSnapshots is the acceptance stress test:
// many concurrent readers against one logical writer stream, under -race.
// Every snapshot a reader observes must be internally consistent — every
// rule's N equals the snapshot's N, counts are ordered, every rule meets
// the thresholds (the valid-set invariant Engine.Verify enforces), and
// sequence numbers never go backwards. After quiescence the final snapshot
// must equal a from-scratch re-mine.
func TestStressReadersSeeConsistentSnapshots(t *testing.T) {
	mcfg := mining.Config{MinSupport: 0.2, MinConfidence: 0.6}
	rel, annots := buildWorld(7, 150)
	baseLen := rel.Len()
	s, eng := mustServer(t, rel, mcfg, Config{BatchWindow: 200 * time.Microsecond})
	if s.Snapshot().Rules.Len() == 0 {
		t.Fatal("stress world mined no rules; the consistency assertions would be vacuous")
	}

	const (
		readers       = 8
		writers       = 3
		writesPerGoro = 40
	)
	var stop atomic.Bool
	var readersWg, writersWg sync.WaitGroup
	readErrs := make(chan string, readers)

	for r := 0; r < readers; r++ {
		readersWg.Add(1)
		go func(r int) {
			defer readersWg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			var lastSeq uint64
			for !stop.Load() {
				snap := s.Snapshot()
				if snap.Seq < lastSeq {
					readErrs <- "snapshot sequence went backwards"
					return
				}
				lastSeq = snap.Seq
				for _, rule := range snap.Rules.Sorted() {
					if rule.N != snap.N {
						readErrs <- "rule N diverges from snapshot N: torn snapshot"
						return
					}
					if rule.PatternCount < 0 || rule.PatternCount > rule.LHSCount || rule.LHSCount > rule.N {
						readErrs <- "rule counts out of order: torn rule"
						return
					}
					if !rule.Meets(mcfg.MinSupport, mcfg.MinConfidence) {
						readErrs <- "invalid rule in published snapshot"
						return
					}
				}
				// Exercise the read API under write load.
				if _, _, err := s.Recommend(rng.Intn(baseLen)); err != nil {
					readErrs <- "recommend failed: " + err.Error()
					return
				}
			}
		}(r)
	}

	for w := 0; w < writers; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + w)))
			ctx := context.Background()
			for i := 0; i < writesPerGoro; i++ {
				switch rng.Intn(4) {
				case 0:
					batch := []relation.Tuple{randomTuple(rng, annots), randomTuple(rng, annots)}
					if _, err := s.AddTuples(ctx, batch); err != nil {
						t.Errorf("writer %d AddTuples: %v", w, err)
						return
					}
				case 1:
					var batch []relation.AnnotationUpdate
					for k := 0; k < 1+rng.Intn(4); k++ {
						batch = append(batch, relation.AnnotationUpdate{
							Index:      rng.Intn(baseLen),
							Annotation: annots[rng.Intn(len(annots))],
						})
					}
					if _, err := s.RemoveAnnotations(ctx, batch); err != nil {
						t.Errorf("writer %d RemoveAnnotations: %v", w, err)
						return
					}
				default:
					var batch []relation.AnnotationUpdate
					for k := 0; k < 1+rng.Intn(4); k++ {
						batch = append(batch, relation.AnnotationUpdate{
							Index:      rng.Intn(baseLen),
							Annotation: annots[rng.Intn(len(annots))],
						})
					}
					if _, err := s.AddAnnotations(ctx, batch); err != nil {
						t.Errorf("writer %d AddAnnotations: %v", w, err)
						return
					}
				}
			}
		}(w)
	}

	// Readers run until every writer's last batch has been acknowledged.
	deadline := time.After(2 * time.Minute)
	writersDone := make(chan struct{})
	go func() {
		writersWg.Wait()
		close(writersDone)
	}()
	select {
	case <-writersDone:
	case <-deadline:
		t.Fatal("stress writers timed out")
	}
	stop.Store(true)
	readersDone := make(chan struct{})
	go func() {
		readersWg.Wait()
		close(readersDone)
	}()
	select {
	case <-readersDone:
	case <-deadline:
		t.Fatal("stress readers did not exit")
	}
	close(readErrs)
	for msg := range readErrs {
		t.Error(msg)
	}

	// Quiesce and verify exactness: published snapshot == engine == re-mine.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Verify(); err != nil {
		t.Fatalf("engine diverged from re-mine after stress: %v", err)
	}
	final := s.Snapshot()
	if diff := rules.Diff(final.Rules.Thaw(), eng.Rules(), rel.Dictionary()); len(diff) != 0 {
		t.Fatalf("final snapshot diverges from engine: %v", diff)
	}
	st := s.Stats()
	if st.Requests != uint64(writers*writesPerGoro) {
		t.Errorf("Requests = %d, want %d", st.Requests, writers*writesPerGoro)
	}
	if st.Batches == 0 || st.SnapshotSeq < 2 {
		t.Errorf("suspicious stats after stress: %+v", st)
	}
	t.Logf("stress: %d requests -> %d engine batches (%d coalesced), %d snapshots, %d reads",
		st.Requests, st.Batches, st.Coalesced, st.SnapshotSeq, st.Reads)
}

// TestReadYourWrites pins the acknowledgment ordering: once a write call
// returns, the snapshot the same client reads next must already include it.
func TestReadYourWrites(t *testing.T) {
	rel := fixture()
	dict := rel.Dictionary()
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: -1})
	a1 := relation.MustAnnotation(dict, "Annot_1")
	ctx := context.Background()
	lastSeq := s.Snapshot().Seq
	lastVer := s.Snapshot().RelVersion
	for i := 0; i < 20; i++ {
		idx := 5 + i%5
		var (
			rep *incremental.Report
			err error
		)
		if i%2 == 0 {
			rep, err = s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: idx, Annotation: a1}})
		} else {
			rep, err = s.RemoveAnnotations(ctx, []relation.AnnotationUpdate{{Index: idx, Annotation: a1}})
		}
		if err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		if snap.Seq <= lastSeq {
			t.Fatalf("iteration %d: acked write preceded its snapshot publish: Seq %d -> %d", i, lastSeq, snap.Seq)
		}
		if rep.Applied > 0 && snap.RelVersion <= lastVer {
			t.Fatalf("iteration %d: applied write not visible: RelVersion %d -> %d", i, lastVer, snap.RelVersion)
		}
		lastSeq, lastVer = snap.Seq, snap.RelVersion
	}
}

func TestStatsReflectSnapshot(t *testing.T) {
	rel := fixture()
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: -1})
	st := s.Stats()
	if st.Tuples != rel.Len() {
		t.Errorf("Stats Tuples = %d, want %d", st.Tuples, rel.Len())
	}
	if want := s.Snapshot().Rules.Len(); st.RuleCount != want {
		t.Errorf("Stats RuleCount = %d, want %d", st.RuleCount, want)
	}
	if st.Bootstraps != 1 {
		t.Errorf("Stats Bootstraps = %d, want 1", st.Bootstraps)
	}
}

func TestEmptyBatchReportsRequestCase(t *testing.T) {
	rel := fixture()
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: -1})
	ctx := context.Background()
	rep, err := s.AddAnnotations(ctx, nil)
	if err != nil || rep.Case != incremental.CaseNewAnnotations {
		t.Errorf("empty annotation batch: case=%v err=%v, want Case 3", rep.Case, err)
	}
	rep, err = s.RemoveAnnotations(ctx, nil)
	if err != nil || rep.Case != incremental.CaseRemoveAnnotations {
		t.Errorf("empty removal batch: case=%v err=%v, want removal case", rep.Case, err)
	}
	rep, err = s.AddTuples(ctx, nil)
	if err != nil || rep.Case != incremental.CaseUnannotatedTuples {
		t.Errorf("empty tuple batch: case=%v err=%v, want Case 2", rep.Case, err)
	}
}
