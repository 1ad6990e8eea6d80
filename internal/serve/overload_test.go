package serve

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"annotadb/internal/relation"
)

// gatedJournal blocks every Log* call on gate until release is closed,
// letting tests pin the writer mid-apply so the admission queue fills
// deterministically.
type gatedJournal struct {
	gate    chan struct{} // receives one token per Log* call entered
	release chan struct{}
}

func newGatedJournal() *gatedJournal {
	return &gatedJournal{gate: make(chan struct{}, 64), release: make(chan struct{})}
}

func (j *gatedJournal) block() {
	j.gate <- struct{}{}
	<-j.release
}

func (j *gatedJournal) LogAnnotations([]relation.AnnotationUpdate, bool) error {
	j.block()
	return nil
}
func (j *gatedJournal) LogTuples([]relation.Tuple) error { j.block(); return nil }
func (j *gatedJournal) Committed() error                 { return nil }

// failCommittedJournal fails Committed while armed and succeeds otherwise.
type failCommittedJournal struct {
	mu  sync.Mutex
	err error
}

func (j *failCommittedJournal) arm(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.err = err
}

func (j *failCommittedJournal) LogAnnotations([]relation.AnnotationUpdate, bool) error { return nil }
func (j *failCommittedJournal) LogTuples([]relation.Tuple) error                       { return nil }
func (j *failCommittedJournal) Committed() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// manualGroupJournal is a GroupJournal whose seal tickets the test resolves
// by hand, exposing the ack-gating contract directly.
type manualGroupJournal struct {
	sealed chan chan error
}

func (j *manualGroupJournal) LogAnnotations([]relation.AnnotationUpdate, bool) error { return nil }
func (j *manualGroupJournal) LogTuples([]relation.Tuple) error                       { return nil }
func (j *manualGroupJournal) Committed() error                                       { return nil }
func (j *manualGroupJournal) Seal() <-chan error {
	t := make(chan error, 1)
	j.sealed <- t
	return t
}

func oneUpdate(t *testing.T, rel *relation.Relation, idx int) []relation.AnnotationUpdate {
	t.Helper()
	a1, ok := rel.Dictionary().Lookup("Annot_1")
	if !ok {
		t.Fatal("fixture is missing Annot_1")
	}
	return []relation.AnnotationUpdate{{Index: idx, Annotation: a1}}
}

// TestOverloadShedsWithExactCounters pins the bounded-admission contract: a
// queue that stays full for a whole batch window sheds with ErrOverloaded
// (within roughly the window, not after an unbounded block), a cancelled
// context is the caller's error rather than a shed, and Requests/Shed count
// exactly the accepted and refused submissions.
func TestOverloadShedsWithExactCounters(t *testing.T) {
	t.Parallel()
	j := newGatedJournal()
	rel := fixture()
	window := 5 * time.Millisecond
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: window, QueueDepth: 1, Journal: j})
	ctx := context.Background()

	// First write: the writer collects it and blocks in the journal append.
	first := make(chan error, 1)
	go func() {
		_, err := s.AddAnnotations(ctx, oneUpdate(t, rel, 0))
		first <- err
	}()
	select {
	case <-j.gate:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never reached the journal")
	}

	// Second write: fills the queue (depth 1) and stays there.
	second := make(chan error, 1)
	go func() {
		_, err := s.AddAnnotations(ctx, oneUpdate(t, rel, 1))
		second <- err
	}()
	waitQueueFull := func() {
		deadline := time.Now().Add(5 * time.Second)
		for len(s.reqs) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("second write never queued")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitQueueFull()

	// Third write: queue full, writer pinned — must shed within roughly the
	// batch window instead of blocking behind the stall.
	start := time.Now()
	_, err := s.AddAnnotations(ctx, oneUpdate(t, rel, 2))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated submit error = %v, want ErrOverloaded", err)
	}
	if waited := time.Since(start); waited > window+2*time.Second {
		t.Fatalf("shed took %v, want about one batch window (%v)", waited, window)
	}

	// Cancelled context during admission: the caller's error, not a shed.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.AddAnnotations(cancelled, oneUpdate(t, rel, 3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit error = %v, want context.Canceled", err)
	}

	// Release the writer: the two admitted writes must complete cleanly.
	close(j.release)
	for i, ch := range []chan error{first, second} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("admitted write %d failed: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("admitted write %d never acknowledged", i)
		}
	}

	st := s.Stats()
	if st.Requests != 2 {
		t.Errorf("Requests = %d, want 2 (shed and cancelled submissions are not accepted)", st.Requests)
	}
	if st.Shed != 1 {
		t.Errorf("Shed = %d, want exactly 1 (the context cancellation is not a shed)", st.Shed)
	}
	if st.Latency.Queue.Count == 0 || st.Latency.Apply.Count == 0 || st.Latency.Publish.Count == 0 {
		t.Errorf("latency stages unobserved: %+v", st.Latency)
	}
}

// TestOverloadNoGoroutineLeaks hammers a saturated server with shed and
// cancelled submissions, closes it, and checks the goroutine count settles
// back — no acker, admission waiter, or writer left behind.
func TestOverloadNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	j := newGatedJournal()
	rel := fixture()
	// Close is idempotent, so mustServer's cleanup after our own Close is a
	// no-op.
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: time.Millisecond, QueueDepth: 1, Journal: j})
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx := ctx
			if i%2 == 0 {
				var cancel context.CancelFunc
				cctx, cancel = context.WithTimeout(ctx, time.Duration(i)*100*time.Microsecond)
				defer cancel()
			}
			_, _ = s.AddAnnotations(cctx, oneUpdate(t, rel, i%5))
		}(i)
	}
	// Let the storm hit the gate, then unblock and shut down.
	time.Sleep(10 * time.Millisecond)
	close(j.release)
	wg.Wait()
	closeCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Close(closeCtx); err != nil {
		t.Fatalf("close after overload storm: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 { // slack for runtime helpers
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after close\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownDrainsAdmittedWrites pins the drain contract: every write the
// queue admitted before Close must be applied and acknowledged with its real
// result — never dropped, never left hanging — including acks parked behind
// a group-commit ticket.
func TestShutdownDrainsAdmittedWrites(t *testing.T) {
	t.Parallel()
	j := newGatedJournal()
	rel := fixture()
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: -1, QueueDepth: 8, Journal: j})

	// Pin the writer, then admit a backlog.
	firstDone := make(chan error, 1)
	go func() {
		_, err := s.AddAnnotations(context.Background(), oneUpdate(t, rel, 0))
		firstDone <- err
	}()
	select {
	case <-j.gate:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never reached the journal")
	}
	const backlog = 5
	done := make(chan error, backlog)
	for i := 0; i < backlog; i++ {
		go func(i int) {
			_, err := s.AddAnnotations(context.Background(), oneUpdate(t, rel, 1+i%4))
			done <- err
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.reqs) < backlog {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never queued: %d of %d", len(s.reqs), backlog)
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Close while the backlog is admitted-but-unapplied, then release the
	// journal so the drain can run.
	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()
	close(j.release)

	for i := 0; i < backlog+1; i++ {
		var ch chan error = done
		if i == backlog {
			ch = firstDone
		}
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("admitted write failed at shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("admitted write never acknowledged after Close")
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestGroupJournalGatesAcksOnSeal pins the group-commit ack contract: a
// batch applied against a GroupJournal is not acknowledged until its seal
// ticket resolves, a nil resolution acks the batch's own results, and an
// error resolution overrides them with ErrJournal.
func TestGroupJournalGatesAcksOnSeal(t *testing.T) {
	t.Parallel()
	j := &manualGroupJournal{sealed: make(chan chan error, 4)}
	rel := fixture()
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: -1, Journal: j})
	ctx := context.Background()

	ack := make(chan error, 1)
	go func() {
		_, err := s.AddAnnotations(ctx, oneUpdate(t, rel, 0))
		ack <- err
	}()
	var ticket chan error
	select {
	case ticket = <-j.sealed:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never sealed the batch")
	}
	select {
	case err := <-ack:
		t.Fatalf("write acknowledged (err=%v) before the seal ticket resolved", err)
	case <-time.After(50 * time.Millisecond):
	}
	ticket <- nil
	select {
	case err := <-ack:
		if err != nil {
			t.Fatalf("write failed after clean seal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write never acknowledged after the seal resolved")
	}
	if st := s.Stats(); st.Latency.Fsync.Count == 0 {
		t.Errorf("Fsync latency unobserved after a sealed batch: %+v", st.Latency)
	}

	// A failed covering fsync must fail the batch with ErrJournal even
	// though apply and publish succeeded.
	go func() {
		_, err := s.AddAnnotations(ctx, oneUpdate(t, rel, 1))
		ack <- err
	}()
	select {
	case ticket = <-j.sealed:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never sealed the second batch")
	}
	ticket <- errors.New("sync wal.log: input/output error")
	select {
	case err := <-ack:
		if !errors.Is(err, ErrJournal) {
			t.Fatalf("failed-seal write error = %v, want ErrJournal", err)
		}
		if !strings.Contains(err.Error(), "input/output error") {
			t.Fatalf("failed-seal write error %q does not carry the fsync cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write never acknowledged after the seal failed")
	}
	if st := s.Stats(); st.JournalErrors == 0 {
		t.Error("JournalErrors did not count the failed covering fsync")
	}
}

// TestCommittedFailureLatchesJournalErr pins the satellite bugfix: a failed
// post-publish Committed call used to only bump a counter; it must latch
// into JournalErr (for health probes) and clear on the next success, since
// the checkpoint policy retries.
func TestCommittedFailureLatchesJournalErr(t *testing.T) {
	t.Parallel()
	j := &failCommittedJournal{}
	rel := fixture()
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: -1, Journal: j})
	ctx := context.Background()

	if err := s.JournalErr(); err != nil {
		t.Fatalf("fresh server JournalErr = %v, want nil", err)
	}
	j.arm(errors.New("write checkpoint.db: no space left on device"))
	if _, err := s.AddAnnotations(ctx, oneUpdate(t, rel, 0)); err != nil {
		t.Fatalf("write must succeed (its record is logged; only the checkpoint failed): %v", err)
	}
	// Committed runs after the ack; poll for the latch.
	deadline := time.Now().Add(5 * time.Second)
	for s.JournalErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("Committed failure never latched into JournalErr")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.JournalErr(); !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("JournalErr = %v, want the Committed cause", err)
	}
	if st := s.Stats(); st.JournalErrors == 0 {
		t.Error("JournalErrors did not count the Committed failure")
	}

	// The next successful Committed clears the latch: the pipeline healed.
	j.arm(nil)
	if _, err := s.AddAnnotations(ctx, oneUpdate(t, rel, 1)); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for s.JournalErr() != nil {
		if time.Now().After(deadline) {
			t.Fatalf("JournalErr still latched after a successful Committed: %v", s.JournalErr())
		}
		time.Sleep(time.Millisecond)
	}
}
