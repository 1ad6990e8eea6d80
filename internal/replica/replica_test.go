package replica

import (
	"errors"
	"os"
	"strings"
	"testing"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/storage"
	"annotadb/internal/wal"
)

var testCfg = mining.Config{MinSupport: 0.3, MinConfidence: 0.7}

func sourceStore(t *testing.T) *wal.Store {
	t.Helper()
	return openSourceStore(t, t.TempDir())
}

// openSourceStore opens (or reopens) the store in dir, seeding a fresh one
// with a small relation; the test's cleanup closes it.
func openSourceStore(t *testing.T, dir string) *wal.Store {
	t.Helper()
	s, err := wal.Open(wal.Options{Dir: dir}, testCfg, incremental.Options{}, func() (*relation.Relation, error) {
		return storage.ReadDataset(strings.NewReader(`28 85 99 Annot_1 Annot_5
28 85 12 Annot_1 Annot_5
28 85 40 Annot_1 Annot_5
28 85 41 Annot_1
28 85 Annot_1
28 41
41 85 Annot_5
62 12
62 40
99 12
`), storage.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

func logAnnotation(t *testing.T, s *wal.Store, tuple int, token string) {
	t.Helper()
	dict := s.Engine().Relation().Dictionary()
	it, ok := dict.Lookup(token)
	if !ok {
		var err error
		if it, err = dict.InternAnnotation(token); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.LogAnnotations([]relation.AnnotationUpdate{{Index: tuple, Annotation: it}}, false); err != nil {
		t.Fatal(err)
	}
}

func newTestSource(t *testing.T, s *wal.Store, seq uint64) *Source {
	t.Helper()
	return newProbedSource(t, s, func() uint64 { return seq })
}

func newProbedSource(t *testing.T, s *wal.Store, seq func() uint64) *Source {
	t.Helper()
	src, err := NewSource(s, seq)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// origin is the cursor a follower bootstrapped from the store's current
// checkpoint starts tailing at.
func origin(t *testing.T, src *Source) uint64 {
	t.Helper()
	_, meta, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return meta.CoveredCursor
}

func TestSourceTailMatchingGeneration(t *testing.T) {
	s := sourceStore(t)
	src := newTestSource(t, s, 42)
	if src.RunID() == "" {
		t.Fatal("source has no run id")
	}
	from := origin(t, src)

	ch, err := src.Tail(from, 0)
	if err != nil {
		t.Fatalf("caught-up tail: %v", err)
	}
	if len(ch.Data) != 0 || ch.End != from || ch.Next != from || ch.Seq != 42 {
		t.Fatalf("caught-up tail = %+v, want empty at cursor %d with seq 42", ch, from)
	}

	logAnnotation(t, s, 1, "Annot_1")
	ch, err = src.Tail(from, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, consumed, err := wal.DecodeFrames(ch.Data)
	if err != nil || len(recs) != 1 || consumed != int64(len(ch.Data)) {
		t.Fatalf("decoded %d records (%v), want 1", len(recs), err)
	}
	if ch.From != from || ch.Next != from+1 || ch.End != from+1 || ch.Seq != 42 {
		t.Errorf("chunk = %+v", ch)
	}
}

func TestSourceTailConflicts(t *testing.T) {
	s := sourceStore(t)
	src := newTestSource(t, s, 1)
	from := origin(t, src)

	// A cursor beyond the log end means the follower knows records this log
	// lost (a primary restart dropped an unsynced tail): re-bootstrap, not
	// retry.
	logAnnotation(t, s, 0, "Annot_1")
	ch, err := src.Tail(from, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Tail(ch.End+1, 0); !errors.Is(err, ErrConflict) {
		t.Errorf("tail beyond the end = %v, want ErrConflict", err)
	}

	// A cursor a checkpoint trimmed is gone.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Tail(from, 0); !errors.Is(err, ErrConflict) {
		t.Errorf("tail at a trimmed cursor = %v, want ErrConflict", err)
	}
}

// TestSourceTailAcrossCheckpoint pins that a checkpoint does not move a
// caught-up follower's position: the epoch advances, and the follower's
// cursor stays served.
func TestSourceTailAcrossCheckpoint(t *testing.T) {
	s := sourceStore(t)
	src := newTestSource(t, s, 7)
	epoch := s.Epoch()
	from := origin(t, src)
	logAnnotation(t, s, 2, "Annot_5")
	before, err := src.Tail(from, 0)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != epoch+1 || origin(t, src) != before.End {
		t.Fatalf("after checkpoint: epoch %d, covered cursor %d; want %d, %d", s.Epoch(), origin(t, src), epoch+1, before.End)
	}

	// The caught-up position is still served, and so is what follows it.
	ch, err := src.Tail(before.End, 0)
	if err != nil || len(ch.Data) != 0 || ch.End != before.End {
		t.Fatalf("caught-up position after checkpoint = %+v, %v; want caught up", ch, err)
	}
	logAnnotation(t, s, 3, "Annot_9")
	ch, err = src.Tail(before.End, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recs, _, derr := wal.DecodeFrames(ch.Data); derr != nil || len(recs) != 1 {
		t.Fatalf("post-checkpoint append decoded %d records (%v), want 1", len(recs), derr)
	}
}

// TestSourceTailBeforeTrim pins the window a background checkpoint install
// leaves open: the checkpoint is durably on disk but the segments it covers
// are not trimmed yet. A follower bootstrapped from that checkpoint tails
// from its covered cursor, which the log serves as it serves any other.
func TestSourceTailBeforeTrim(t *testing.T) {
	s := sourceStore(t)
	src := newTestSource(t, s, 9)
	from := origin(t, src)
	logAnnotation(t, s, 0, "Annot_1")
	base, err := src.Tail(from, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Install the next generation's checkpoint without trimming the log —
	// exactly what WriteCheckpointFile does before the writer's trim.
	st := s.Engine().State()
	ck := &storage.Checkpoint{
		CheckpointMeta: storage.CheckpointMeta{
			Epoch:             s.Epoch() + 1,
			CoveredCursor:     base.End,
			ConfigFingerprint: wal.Fingerprint(testCfg, ""),
		},
		Relation: st.Relation,
	}
	if err := storage.WriteCheckpointFile(wal.CheckpointPath(s.Dir()), ck); err != nil {
		t.Fatal(err)
	}
	covered := origin(t, src)
	if covered != base.End {
		t.Fatalf("installed checkpoint covers through %d, want %d", covered, base.End)
	}

	// Caught up at the covered cursor; the covered record stays readable.
	ch, err := src.Tail(covered, 0)
	if err != nil || len(ch.Data) != 0 || ch.End != covered {
		t.Fatalf("covered cursor = %+v, %v; want caught up", ch, err)
	}
	if _, err := src.Tail(from, 0); err != nil {
		t.Errorf("untrimmed cursor below the coverage = %v, want served", err)
	}

	// Appends past the coverage serve from the covered cursor.
	logAnnotation(t, s, 4, "Annot_5")
	ch, err = src.Tail(covered, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.DecodeFrames(ch.Data)
	if err != nil || len(recs) != 1 || recs[0].Updates[0].Annotation != "Annot_5" {
		t.Fatalf("decode past the coverage = %+v, %v", recs, err)
	}
	if ch.From != covered || ch.Next != covered+1 || ch.End != covered+1 {
		t.Errorf("chunk = %+v", ch)
	}
}

func TestOpenCheckpointStreamsTheInstalledOne(t *testing.T) {
	s := sourceStore(t)
	src := newTestSource(t, s, 3)

	// The bootstrap checkpoint exists; OpenCheckpoint streams it.
	f, meta, err := src.OpenCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != s.Epoch() {
		t.Errorf("checkpoint meta epoch = %d, want the current generation %d", meta.Epoch, s.Epoch())
	}
	ck, err := storage.ReadCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatalf("streamed checkpoint does not fully decode: %v", err)
	}
	if ck.Epoch != meta.Epoch || ck.ConfigFingerprint != wal.Fingerprint(testCfg, "") {
		t.Errorf("checkpoint head = epoch %d fp %q", ck.Epoch, ck.ConfigFingerprint)
	}

	// With no checkpoint on disk the open fails and captures nothing: a
	// checkpoint is the serving writer's to take, and the handler reports
	// the error for the follower to retry. A record past the checkpoint
	// shows whether one was taken: it would cover the record.
	logAnnotation(t, s, 5, "Annot_5")
	end := func() uint64 {
		t.Helper()
		tc, err := s.ReadTail(meta.CoveredCursor, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tc.End
	}
	epoch, next, checkpoints := s.Epoch(), end(), s.Stats().Checkpoints
	if err := os.Remove(wal.CheckpointPath(s.Dir())); err != nil {
		t.Fatal(err)
	}
	if f, _, err := src.OpenCheckpoint(); !errors.Is(err, os.ErrNotExist) {
		if f != nil {
			f.Close()
		}
		t.Fatalf("OpenCheckpoint without a checkpoint: err = %v, want os.ErrNotExist", err)
	}
	if s.Epoch() != epoch || end() != next || s.Stats().Checkpoints != checkpoints || !s.HasPendingRecords() {
		t.Errorf("the failed open moved the store: epoch %d → %d, next cursor %d → %d, checkpoints %d → %d",
			epoch, s.Epoch(), next, end(), checkpoints, s.Stats().Checkpoints)
	}
	if _, err := os.Stat(wal.CheckpointPath(s.Dir())); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a checkpoint file appeared: %v", err)
	}
}
