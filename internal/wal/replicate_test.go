package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"strings"
	"testing"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/storage"
)

// replicaStore opens a durable store over the small serving fixture corpus.
func replicaStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Options{Dir: t.TempDir()}, mining.Config{MinSupport: 0.3, MinConfidence: 0.7}, incremental.Options{}, func() (*relation.Relation, error) {
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

// logAnnotation appends one single-update annotation record to the store's
// log (journal only; the engine is not consulted by ReadTail).
func logAnnotation(t *testing.T, s *Store, tuple int, token string) {
	t.Helper()
	it, err := s.Engine().Relation().Dictionary().ResolveAnnotation(token)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogAnnotations([]relation.AnnotationUpdate{{Index: tuple, Annotation: it}}, false); err != nil {
		t.Fatal(err)
	}
}

func TestReadTailRoundTrip(t *testing.T) {
	s := replicaStore(t)
	epoch := s.Epoch()

	tc, err := s.ReadTail(LogHeaderSize, 0)
	if err != nil {
		t.Fatalf("caught-up read: %v", err)
	}
	if len(tc.Data) != 0 || tc.Size != LogHeaderSize || tc.Epoch != epoch {
		t.Fatalf("caught-up read = %+v, want empty at size %d epoch %d", tc, LogHeaderSize, epoch)
	}

	logAnnotation(t, s, 5, "Annot_1")
	logAnnotation(t, s, 8, "Annot_9")

	tc, err = s.ReadTail(LogHeaderSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, consumed, err := DecodeFrames(tc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != int64(len(tc.Data)) || tc.From+consumed != tc.Size {
		t.Fatalf("decode consumed %d of %d bytes, size %d", consumed, len(tc.Data), tc.Size)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records, want 2", len(recs))
	}
	if recs[0].Kind != KindAddAnnotations || recs[0].Updates[0].Tuple != 5 || recs[0].Updates[0].Annotation != "Annot_1" {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].Updates[0].Annotation != "Annot_9" {
		t.Errorf("record 1 = %+v", recs[1])
	}

	// A resume from the first frame boundary yields exactly the second
	// record (the undersized limit below pins the boundary).
	one, err := s.ReadTail(LogHeaderSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := s.ReadTail(LogHeaderSize+int64(len(one.Data)), 0)
	if err != nil {
		t.Fatal(err)
	}
	restRecs, _, err := DecodeFrames(rest.Data)
	if err != nil || len(restRecs) != 1 || restRecs[0].Updates[0].Annotation != "Annot_9" {
		t.Fatalf("resume decode = %+v, %v", restRecs, err)
	}

	if _, err := s.ReadTail(tc.Size+1, 0); !errors.Is(err, ErrTailOutOfRange) {
		t.Fatalf("read beyond the end = %v, want ErrTailOutOfRange", err)
	}
}

func TestReadTailChunkLimit(t *testing.T) {
	s := replicaStore(t)
	logAnnotation(t, s, 0, "Annot_1")
	logAnnotation(t, s, 1, "Annot_5")

	full, err := s.ReadTail(LogHeaderSize, 0)
	if err != nil {
		t.Fatal(err)
	}

	// A limit below even one frame still returns the first frame whole:
	// progress must always be possible behind an oversized batch.
	one, err := s.ReadTail(LogHeaderSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	oneRecs, consumed, err := DecodeFrames(one.Data)
	if err != nil || len(oneRecs) != 1 {
		t.Fatalf("undersized read decoded %d records (%v), want 1", len(oneRecs), err)
	}
	if consumed != int64(len(one.Data)) {
		t.Fatalf("undersized read carries %d bytes beyond its frame", int64(len(one.Data))-consumed)
	}
	if one.Size != full.Size {
		t.Errorf("undersized read reports size %d, want the log end %d", one.Size, full.Size)
	}

	// A limit that cuts into the second frame trims to the first boundary.
	frame1 := int64(len(one.Data))
	cut, err := s.ReadTail(LogHeaderSize, frame1+3)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(cut.Data)) != frame1 {
		t.Errorf("mid-frame limit returned %d bytes, want the frame boundary %d", len(cut.Data), frame1)
	}
}

// TestReadTailStopsAtDamage pins the primary side of the torn-tail rule for
// replication chunks: below the log end every frame is whole, so a chunk
// stops before a damaged frame, and a read that starts at one is an error —
// not the damaged bytes, and not an empty chunk a follower would re-poll
// forever.
func TestReadTailStopsAtDamage(t *testing.T) {
	s := replicaStore(t)
	logAnnotation(t, s, 0, "Annot_1")
	logAnnotation(t, s, 1, "Annot_5")
	logAnnotation(t, s, 2, "Annot_1")
	one, err := s.ReadTail(LogHeaderSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame1 := int64(len(one.Data))
	f, err := os.OpenFile(LogPath(s.Dir()), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second frame: a CRC failure, bytes follow.
	if _, err := f.WriteAt([]byte{0xFF}, LogHeaderSize+frame1+frameHeaderSize); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck, err := s.ReadTail(LogHeaderSize, 0)
	if err != nil || int64(len(ck.Data)) != frame1 {
		t.Fatalf("read over damage = %d bytes, %v; want the %d bytes before it", len(ck.Data), err, frame1)
	}
	if ck, err := s.ReadTail(LogHeaderSize+frame1, 0); err == nil {
		t.Fatalf("read starting at the damaged frame = %d bytes, no error", len(ck.Data))
	}
}

func TestDecodeFramesDamage(t *testing.T) {
	s := replicaStore(t)
	logAnnotation(t, s, 0, "Annot_1")
	logAnnotation(t, s, 1, "Annot_5")
	full, err := s.ReadTail(LogHeaderSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := s.ReadTail(LogHeaderSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame1 := int64(len(one.Data))

	// An incomplete trailing frame ends the parse cleanly at the boundary.
	for _, cut := range []int64{frame1 + 2, frame1 + frameHeaderSize + 1} {
		recs, consumed, err := DecodeFrames(full.Data[:cut])
		if err != nil || len(recs) != 1 || consumed != frame1 {
			t.Errorf("cut %d: decode = %d recs, consumed %d, err %v; want 1, %d, nil", cut, len(recs), consumed, frame1, err)
		}
	}

	// A CRC mismatch inside a complete frame is an error; consumed marks
	// the last good boundary.
	bad := append([]byte(nil), full.Data...)
	bad[frame1+frameHeaderSize] ^= 0xFF
	recs, consumed, err := DecodeFrames(bad)
	if err == nil || len(recs) != 1 || consumed != frame1 {
		t.Errorf("crc damage: decode = %d recs, consumed %d, err %v; want 1, %d, error", len(recs), consumed, frame1, err)
	}

	// An impossible length prefix is an error, not an infinite loop.
	bad = append([]byte(nil), full.Data...)
	binary.LittleEndian.PutUint32(bad[frame1:frame1+4], 0)
	if _, consumed, err := DecodeFrames(bad); err == nil || consumed != frame1 {
		t.Errorf("zero length: consumed %d, err %v; want %d, error", consumed, err, frame1)
	}
}
