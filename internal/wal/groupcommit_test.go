package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"annotadb/internal/relation"
)

// appendFixtureBatch logs one annotation batch through the store's writer
// API and applies it to the engine, as the serving writer would.
func appendFixtureBatch(t *testing.T, s *Store, idx int) {
	t.Helper()
	dict := s.Engine().Relation().Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	upd := []relation.AnnotationUpdate{{Index: idx % 5, Annotation: a1}}
	if err := s.LogAnnotations(upd, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine().AddAnnotations(upd); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitSealMakesAppendsDurable(t *testing.T) {
	t.Parallel()
	opts := Options{Dir: t.TempDir(), Sync: SyncAlways, FlushWindow: -1}
	s := openFixtureStore(t, opts)
	syncsBefore := s.Stats().Syncs
	for i := 0; i < 3; i++ {
		appendFixtureBatch(t, s, i)
	}
	if st := s.Stats(); st.UnsyncedRecords != 3 {
		t.Fatalf("before seal: UnsyncedRecords = %d, want 3 (group commit defers the fsync)", st.UnsyncedRecords)
	}
	ticket := s.Seal()
	if ticket == nil {
		t.Fatal("Seal returned nil with unsynced records under group commit")
	}
	select {
	case err := <-ticket:
		if err != nil {
			t.Fatalf("seal ticket resolved with error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("seal ticket never resolved")
	}
	st := s.Stats()
	if st.UnsyncedRecords != 0 || st.UnsyncedBytes != 0 {
		t.Fatalf("after covering fsync: unsynced = %d records / %d bytes, want 0/0", st.UnsyncedRecords, st.UnsyncedBytes)
	}
	if st.Syncs <= syncsBefore {
		t.Fatalf("Syncs did not advance across the covering fsync: %d -> %d", syncsBefore, st.Syncs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openFixtureStore(t, opts)
	if rec := s2.Recovery(); !rec.FromCheckpoint || rec.Records != 3 {
		t.Fatalf("recovery = %+v, want 3 sealed records replayed", rec)
	}
}

func TestGroupCommitLingerResolvesWithinWindow(t *testing.T) {
	t.Parallel()
	opts := Options{Dir: t.TempDir(), Sync: SyncAlways, FlushWindow: 5 * time.Millisecond}
	s := openFixtureStore(t, opts)
	appendFixtureBatch(t, s, 0)
	ticket := s.Seal()
	if ticket == nil {
		t.Fatal("Seal returned nil with unsynced records")
	}
	select {
	case err := <-ticket:
		if err != nil {
			t.Fatalf("seal ticket resolved with error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lingering seal ticket never resolved")
	}
	if st := s.Stats(); st.UnsyncedRecords != 0 {
		t.Fatalf("UnsyncedRecords = %d after lingered commit, want 0", st.UnsyncedRecords)
	}
}

func TestSealNoopWithoutGroupCommit(t *testing.T) {
	t.Parallel()
	// Group commit off (FlushWindow zero): appends fsync inline, Seal has
	// nothing to cover.
	s := openFixtureStore(t, Options{Dir: t.TempDir(), Sync: SyncAlways})
	appendFixtureBatch(t, s, 0)
	if ticket := s.Seal(); ticket != nil {
		t.Fatal("Seal returned a ticket with group commit off")
	}
	if st := s.Stats(); st.UnsyncedRecords != 0 {
		t.Fatalf("inline SyncAlways left UnsyncedRecords = %d, want 0", st.UnsyncedRecords)
	}
	// Group commit on but nothing appended since the last covering fsync.
	s2 := openFixtureStore(t, Options{Dir: t.TempDir(), Sync: SyncAlways, FlushWindow: -1})
	if ticket := s2.Seal(); ticket != nil {
		t.Fatal("Seal returned a ticket with nothing unsynced")
	}
}

func TestGroupCommitByteCapCutsLingerShort(t *testing.T) {
	t.Parallel()
	const window = 10 * time.Second
	s := openFixtureStore(t, Options{Dir: t.TempDir(), Sync: SyncAlways, FlushWindow: window})
	a1, _ := s.Engine().Relation().Dictionary().Lookup("Annot_1")
	batch := make([]relation.AnnotationUpdate, 4096)
	for i := range batch {
		batch[i] = relation.AnnotationUpdate{Index: i % 5, Annotation: a1}
	}
	for s.Stats().UnsyncedBytes <= maxGroupBytes {
		if err := s.LogAnnotations(batch, false); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	ticket := s.Seal()
	if ticket == nil {
		t.Fatal("Seal returned nil with unsynced records under group commit")
	}
	select {
	case err := <-ticket:
		if err != nil {
			t.Fatalf("seal ticket resolved with error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("seal ticket still pending after 2s with %d unsynced bytes: the byte cap did not cut the %v linger short",
			s.Stats().UnsyncedBytes, window)
	}
	if took := time.Since(start); took >= window/2 {
		t.Fatalf("covering fsync took %v, want well under the %v window", took, window)
	}
	if st := s.Stats(); st.UnsyncedRecords != 0 {
		t.Fatalf("UnsyncedRecords = %d after the covering fsync, want 0", st.UnsyncedRecords)
	}
}

// TestSealTicketsResolvedWhenLoopStops pins the teardown rule of the sync
// loop: tickets still queued at stop get one final sync's result instead of
// leaving their waiters blocked.
func TestSealTicketsResolvedWhenLoopStops(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	var syncs atomic.Int32
	l := startSyncLoop(0, nil, func() error {
		if syncs.Add(1) == 1 {
			<-release // hold the first sync so later tickets queue behind it
		}
		return nil
	})
	first := l.ticket()
	for syncs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	queued := []<-chan error{l.ticket(), l.ticket(), l.ticket()}
	stopped := make(chan struct{})
	go func() {
		l.stop()
		close(stopped)
	}()
	close(release)
	<-stopped
	for i, t2 := range append(queued, first) {
		select {
		case err := <-t2:
			if err != nil {
				t.Fatalf("ticket %d resolved with %v", i, err)
			}
		default:
			t.Fatalf("ticket %d still pending after stop", i)
		}
	}
	if n := syncs.Load(); n != 2 {
		t.Fatalf("%d syncs, want 2: the held one, then one covering every queued ticket", n)
	}
}

func TestUnsyncedCountersUnderSyncNever(t *testing.T) {
	t.Parallel()
	s := openFixtureStore(t, Options{Dir: t.TempDir(), Sync: SyncNever})
	for i := 0; i < 4; i++ {
		appendFixtureBatch(t, s, i)
	}
	st := s.Stats()
	if st.UnsyncedRecords != 4 || st.UnsyncedBytes <= 0 {
		t.Fatalf("SyncNever crash window = %d records / %d bytes, want 4 records and positive bytes", st.UnsyncedRecords, st.UnsyncedBytes)
	}
	// A checkpoint truncation rewrites the tail durably (temp file fsync +
	// rename), so it must clear the crash window too.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.UnsyncedRecords != 0 || st.UnsyncedBytes != 0 {
		t.Fatalf("after checkpoint: unsynced = %d records / %d bytes, want 0/0", st.UnsyncedRecords, st.UnsyncedBytes)
	}
}

func TestIntervalFlusherBoundsCrashWindow(t *testing.T) {
	t.Parallel()
	s := openFixtureStore(t, Options{Dir: t.TempDir(), Sync: SyncInterval, SyncEvery: 10 * time.Millisecond})
	// Neither append syncs inline: each only wakes the background loop,
	// which syncs one cadence later even though no further append arrives.
	appendFixtureBatch(t, s, 0)
	appendFixtureBatch(t, s, 1)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().UnsyncedRecords != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("interval flusher never synced the idle tail: %d records pending", s.Stats().UnsyncedRecords)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSegmentedKillAtEveryBoundary is the event-stream crash matrix: a
// segmented log killed at every possible byte of its active segment must
// reopen to an intact, contiguous prefix that subscribers can resume from —
// never an error, never a corrupt record, and the next append must continue
// the cursor sequence. (Sealed segments are fsynced at rotation, so only
// the active segment can be torn.)
func TestSegmentedKillAtEveryBoundary(t *testing.T) {
	t.Parallel()
	master := t.TempDir()
	opts := SegmentedOptions{Dir: master, SegmentBytes: 128, RetainSegments: -1}
	l, err := OpenSegmented(opts)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 30)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(master)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	active := names[len(names)-1] // lexicographic order == cursor order
	activeBytes, err := os.ReadFile(filepath.Join(master, active))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(activeBytes); cut++ {
		dir := t.TempDir()
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(master, name))
			if err != nil {
				t.Fatal(err)
			}
			if name == active {
				data = data[:cut]
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		re, err := OpenSegmented(SegmentedOptions{Dir: dir, SegmentBytes: 128, RetainSegments: -1})
		if err != nil {
			t.Fatalf("cut %d: reopen failed: %v", cut, err)
		}
		next := re.NextCursor()
		got := readAll(t, re, re.FirstCursor())
		if uint64(len(got))+re.FirstCursor() != next {
			t.Fatalf("cut %d: read %d records but cursors span [%d, %d)", cut, len(got), re.FirstCursor(), next)
		}
		for i, s := range got {
			cursor := re.FirstCursor() + uint64(i)
			if want := fmt.Sprintf("record-%04d", cursor-1); s != want {
				t.Fatalf("cut %d: cursor %d = %q, want %q (prefix not intact)", cut, cursor, s, want)
			}
		}
		cursor, err := re.Append([]byte("resumed"))
		if err != nil || cursor != next {
			t.Fatalf("cut %d: append after crash: cursor %d err %v, want %d", cut, cursor, err, next)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

func TestSegmentedFlushWindowSyncsTail(t *testing.T) {
	t.Parallel()
	l := openSeg(t, SegmentedOptions{Dir: t.TempDir(), SegmentBytes: 1 << 20, FlushWindow: time.Millisecond})
	if _, err := l.Append([]byte("event")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never synced the active segment")
		}
		time.Sleep(time.Millisecond)
	}
}
