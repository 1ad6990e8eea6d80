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
	s, err := wal.Open(wal.Options{Dir: t.TempDir()}, testCfg, incremental.Options{}, func() (*relation.Relation, error) {
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
	src, err := NewSource(s, func() uint64 { return seq })
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestSourceTailMatchingGeneration(t *testing.T) {
	s := sourceStore(t)
	src := newTestSource(t, s, 42)
	if src.RunID() == "" {
		t.Fatal("source has no run id")
	}
	epoch := s.Epoch()

	ch, err := src.Tail(epoch, wal.LogHeaderSize, 0)
	if err != nil {
		t.Fatalf("caught-up tail: %v", err)
	}
	if len(ch.Data) != 0 || ch.Size != wal.LogHeaderSize || ch.Seq != 42 {
		t.Fatalf("caught-up tail = %+v, want empty at origin with seq 42", ch)
	}

	logAnnotation(t, s, 1, "Annot_1")
	ch, err = src.Tail(epoch, wal.LogHeaderSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, consumed, err := wal.DecodeFrames(ch.Data)
	if err != nil || len(recs) != 1 {
		t.Fatalf("decoded %d records (%v), want 1", len(recs), err)
	}
	if ch.Epoch != epoch || ch.Seq != 42 || ch.From+consumed != ch.Size {
		t.Errorf("chunk = %+v (consumed %d)", ch, consumed)
	}
}

func TestSourceTailConflicts(t *testing.T) {
	s := sourceStore(t)
	src := newTestSource(t, s, 1)
	epoch := s.Epoch()

	// Generations the log can neither serve nor translate.
	for _, e := range []uint64{epoch + 2, epoch + 7} {
		if _, err := src.Tail(e, wal.LogHeaderSize, 0); !errors.Is(err, ErrConflict) {
			t.Errorf("tail at foreign epoch %d = %v, want ErrConflict", e, err)
		}
	}

	// One generation ahead without an installed checkpoint for it: the
	// translation has nothing to translate through.
	if _, err := src.Tail(epoch+1, wal.LogHeaderSize, 0); !errors.Is(err, ErrConflict) {
		t.Errorf("tail one epoch ahead without a pending checkpoint = %v, want ErrConflict", err)
	}

	// A position beyond the log end in the right generation means the
	// follower knows bytes this log lost (a primary restart dropped an
	// unsynced tail): re-bootstrap, not retry.
	logAnnotation(t, s, 0, "Annot_1")
	ch, err := src.Tail(epoch, wal.LogHeaderSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Tail(epoch, ch.Size+8, 0); !errors.Is(err, ErrConflict) {
		t.Errorf("tail beyond the end = %v, want ErrConflict", err)
	}
}

func TestSourceEpochBumpOnCheckpoint(t *testing.T) {
	s := sourceStore(t)
	src := newTestSource(t, s, 7)
	epoch := s.Epoch()
	logAnnotation(t, s, 2, "Annot_5")
	before, err := src.Tail(epoch, wal.LogHeaderSize, 0)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != epoch+1 {
		t.Fatalf("epoch after checkpoint = %d, want %d", s.Epoch(), epoch+1)
	}

	// The old generation is gone; its positions conflict.
	if _, err := src.Tail(epoch, before.Size, 0); !errors.Is(err, ErrConflict) {
		t.Errorf("tail at the truncated generation = %v, want ErrConflict", err)
	}

	// The new generation serves from its origin.
	ch, err := src.Tail(epoch+1, wal.LogHeaderSize, 0)
	if err != nil || len(ch.Data) != 0 || ch.Size != wal.LogHeaderSize {
		t.Fatalf("new generation origin = %+v, %v; want caught up", ch, err)
	}
	logAnnotation(t, s, 3, "Annot_9")
	ch, err = src.Tail(epoch+1, wal.LogHeaderSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recs, _, derr := wal.DecodeFrames(ch.Data); derr != nil || len(recs) != 1 {
		t.Fatalf("post-checkpoint append decoded %d records (%v), want 1", len(recs), derr)
	}
}

// TestSourceTailTranslatesAcrossPendingTruncation pins the window a
// background checkpoint install leaves open: the checkpoint for the next
// generation is durably on disk but the covered log prefix is not yet
// truncated. A follower bootstrapped from that checkpoint tails the next
// generation, and the source serves it by translating offsets through the
// checkpoint's coverage into the old log's tail.
func TestSourceTailTranslatesAcrossPendingTruncation(t *testing.T) {
	s := sourceStore(t)
	src := newTestSource(t, s, 9)
	epoch := s.Epoch()
	logAnnotation(t, s, 0, "Annot_1")
	base, err := src.Tail(epoch, wal.LogHeaderSize, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Install the next generation's checkpoint without truncating the log —
	// exactly what WriteCheckpointFile does before the writer's truncation
	// catches up.
	st := s.Engine().State()
	ck := &storage.Checkpoint{
		Epoch:             epoch + 1,
		CoveredBytes:      uint64(base.Size),
		ConfigFingerprint: wal.Fingerprint(testCfg, ""),
		Relation:          st.Relation,
		Valid:             st.Valid,
		Candidates:        st.Candidates,
		DataPatterns:      st.DataPatterns,
		AnnotPatterns:     st.AnnotPatterns,
	}
	if err := storage.WriteCheckpointFile(wal.CheckpointPath(s.Dir()), ck); err != nil {
		t.Fatal(err)
	}

	// Caught up at the new generation's origin: everything below the
	// coverage is the checkpoint's.
	ch, err := src.Tail(epoch+1, wal.LogHeaderSize, 0)
	if err != nil || len(ch.Data) != 0 || ch.Size != wal.LogHeaderSize {
		t.Fatalf("translated origin = %+v, %v; want caught up", ch, err)
	}

	// Appends past the coverage serve translated into the new offset space.
	logAnnotation(t, s, 4, "Annot_5")
	ch, err = src.Tail(epoch+1, wal.LogHeaderSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, consumed, err := wal.DecodeFrames(ch.Data)
	if err != nil || len(recs) != 1 || recs[0].Updates[0].Annotation != "Annot_5" {
		t.Fatalf("translated decode = %+v, %v", recs, err)
	}
	if ch.Epoch != epoch+1 || ch.From != wal.LogHeaderSize || ch.From+consumed != ch.Size {
		t.Errorf("translated chunk = %+v (consumed %d)", ch, consumed)
	}
}

func TestOpenCheckpointCapturesOnDemand(t *testing.T) {
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

	// With no checkpoint on disk a fresh one is captured on demand: a
	// follower can always bootstrap.
	if err := os.Remove(wal.CheckpointPath(s.Dir())); err != nil {
		t.Fatal(err)
	}
	f, meta, err = src.OpenCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if meta.Epoch != s.Epoch() {
		t.Errorf("on-demand checkpoint epoch = %d, want %d", meta.Epoch, s.Epoch())
	}
	if _, err := storage.ReadCheckpoint(f); err != nil {
		t.Errorf("on-demand checkpoint does not decode: %v", err)
	}
}
