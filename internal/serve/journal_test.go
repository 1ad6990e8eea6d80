package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"annotadb/internal/relation"
)

// recordingJournal captures the writer's journal calls and can be armed to
// fail the next append. The mutex makes it safe to inspect from the test
// goroutine: Log* calls happen before the ack, but Committed deliberately
// runs after it, so the test must synchronize (and poll) rather than rely
// on the ack as a happens-before edge.
type recordingJournal struct {
	mu        sync.Mutex
	annots    [][]relation.AnnotationUpdate
	removals  [][]relation.AnnotationUpdate
	tuples    [][]relation.Tuple
	committed int
	failNext  error
}

// takeFailure consumes the armed failure; callers must hold mu.
func (j *recordingJournal) takeFailure() error {
	err := j.failNext
	j.failNext = nil
	return err
}

func (j *recordingJournal) arm(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.failNext = err
}

func (j *recordingJournal) snapshot() (annots, removals int, tuples, committed int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.annots), len(j.removals), len(j.tuples), j.committed
}

func (j *recordingJournal) waitCommitted(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		j.mu.Lock()
		c := j.committed
		j.mu.Unlock()
		if c >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("Committed not called %d times within deadline", n)
}

func (j *recordingJournal) LogAnnotations(updates []relation.AnnotationUpdate, remove bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.takeFailure(); err != nil {
		return err
	}
	cp := append([]relation.AnnotationUpdate(nil), updates...)
	if remove {
		j.removals = append(j.removals, cp)
	} else {
		j.annots = append(j.annots, cp)
	}
	return nil
}

func (j *recordingJournal) LogTuples(tuples []relation.Tuple) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.takeFailure(); err != nil {
		return err
	}
	j.tuples = append(j.tuples, append([]relation.Tuple(nil), tuples...))
	return nil
}

func (j *recordingJournal) Seal() <-chan error { return nil }

func (j *recordingJournal) Committed() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.takeFailure(); err != nil {
		return err
	}
	j.committed++
	return nil
}

func TestJournalReceivesEveryBatchBeforeAck(t *testing.T) {
	j := &recordingJournal{}
	rel := fixture()
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: -1, Journal: j})
	ctx := context.Background()
	dict := rel.Dictionary()
	a1, _ := dict.Lookup("Annot_1")

	if _, err := s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: 5, Annotation: a1}}); err != nil {
		t.Fatal(err)
	}
	// The ack happens after the journal append, so the batch is visible
	// now; Committed runs after the ack, so it is polled.
	j.mu.Lock()
	if len(j.annots) != 1 || len(j.annots[0]) != 1 || j.annots[0][0].Index != 5 {
		t.Fatalf("journaled annotation batches = %+v, want the submitted batch", j.annots)
	}
	j.mu.Unlock()
	j.waitCommitted(t, 1)

	if _, err := s.RemoveAnnotations(ctx, []relation.AnnotationUpdate{{Index: 5, Annotation: a1}}); err != nil {
		t.Fatal(err)
	}
	if _, removals, _, _ := j.snapshot(); removals != 1 {
		t.Fatalf("journaled removal batches = %d, want 1", removals)
	}

	if _, err := s.AddTuples(ctx, []relation.Tuple{relation.MustTuple(dict, []string{"28"}, nil)}); err != nil {
		t.Fatal(err)
	}
	if _, _, tuples, _ := j.snapshot(); tuples != 1 {
		t.Fatalf("journaled tuple batches = %d, want 1", tuples)
	}

	// Empty batches are answered without touching the writer or journal.
	before, _, _, _ := j.snapshot()
	if _, err := s.AddAnnotations(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if after, _, _, _ := j.snapshot(); after != before {
		t.Error("empty batch reached the journal")
	}
}

func TestJournalFailureFailsBatchWithoutApplying(t *testing.T) {
	j := &recordingJournal{}
	rel := fixture()
	s, eng := mustServer(t, rel, testCfg(), Config{BatchWindow: -1, Journal: j})
	ctx := context.Background()
	a1, _ := rel.Dictionary().Lookup("Annot_1")

	versionBefore := rel.Version()
	boom := errors.New("disk full")
	j.arm(boom)
	_, err := s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: 5, Annotation: a1}})
	if !errors.Is(err, boom) {
		t.Fatalf("AddAnnotations under journal failure = %v, want wrapped %v", err, boom)
	}
	// Write-ahead contract: a batch the log rejected must not reach the
	// engine, or recovery would silently lose it.
	if got := rel.Version(); got != versionBefore {
		t.Errorf("relation version advanced to %d despite journal failure (was %d)", got, versionBefore)
	}
	if st := s.Stats(); st.JournalErrors != 1 {
		t.Errorf("JournalErrors = %d, want 1", st.JournalErrors)
	}
	// The server keeps serving: the same batch succeeds on retry.
	if _, err := s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: 5, Annotation: a1}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Verify(); err != nil {
		t.Errorf("engine diverged after journal failure: %v", err)
	}
}
