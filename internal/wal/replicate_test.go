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
	origin := s.log.NextCursor()

	tc, err := s.ReadTail(origin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.Data) != 0 || tc.Records != 0 || tc.End != origin {
		t.Fatalf("caught-up read = %+v, want empty at end %d", tc, origin)
	}

	logAnnotation(t, s, 1, "Annot_1")
	logAnnotation(t, s, 2, "Annot_5")
	tc, err = s.ReadTail(origin, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, consumed, err := DecodeFrames(tc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || tc.Records != 2 || consumed != int64(len(tc.Data)) || tc.End != origin+2 {
		t.Fatalf("read = %d records (chunk says %d), consumed %d of %d, end %d", len(recs), tc.Records, consumed, len(tc.Data), tc.End)
	}
	if recs[0].Kind != KindAddAnnotations || recs[0].Updates[0] != (Update{Tuple: 1, Annotation: "Annot_1"}) {
		t.Errorf("first record = %+v", recs[0])
	}

	// Resuming at the second record's cursor returns only the second.
	rest, err := s.ReadTail(origin+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	restRecs, _, err := DecodeFrames(rest.Data)
	if err != nil || len(restRecs) != 1 || restRecs[0].Updates[0].Annotation != "Annot_5" {
		t.Fatalf("resumed read = %+v, %v", restRecs, err)
	}

	if _, err := s.ReadTail(tc.End+1, 0); !errors.Is(err, ErrTailOutOfRange) {
		t.Fatalf("read beyond the end = %v, want ErrTailOutOfRange", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var trimmed *ErrCursorTrimmed
	if _, err := s.ReadTail(origin, 0); !errors.As(err, &trimmed) {
		t.Fatalf("read of a trimmed cursor = %v, want *ErrCursorTrimmed", err)
	}
}

func TestReadTailChunkLimit(t *testing.T) {
	s := replicaStore(t)
	origin := s.log.NextCursor()
	logAnnotation(t, s, 1, "Annot_1")
	logAnnotation(t, s, 2, "Annot_5")
	full, err := s.ReadTail(origin, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame1 := frameSize(full.Data)

	// A limit below one frame still returns that whole frame: an oversized
	// record never wedges the reader.
	one, err := s.ReadTail(origin, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Records != 1 || int64(len(one.Data)) != frame1 || one.End != full.End {
		t.Fatalf("1-byte limit = %d records, %d bytes, end %d; want 1, %d, %d", one.Records, len(one.Data), one.End, frame1, full.End)
	}

	// A limit that ends inside the second frame stops before it.
	cut, err := s.ReadTail(origin, frame1+3)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Records != 1 || int64(len(cut.Data)) != frame1 {
		t.Fatalf("mid-frame limit = %d records, %d bytes; want 1 whole frame of %d", cut.Records, len(cut.Data), frame1)
	}
}

// TestReadTailStopsAtDamage pins the primary side of the torn-tail rule for
// replication: below the log end every frame is whole, so a record damaged
// on disk is corruption, and a read that reaches it is an error — not the
// damaged bytes, and not an empty chunk a follower would re-poll forever.
func TestReadTailStopsAtDamage(t *testing.T) {
	s := replicaStore(t)
	origin := s.log.NextCursor()
	logAnnotation(t, s, 1, "Annot_1")
	logAnnotation(t, s, 2, "Annot_5")
	one, err := s.ReadTail(origin, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame1 := int64(len(one.Data))
	f, err := os.OpenFile(newestSegment(t, s.Dir()), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the second frame's first payload byte: its CRC now fails.
	if _, err := f.WriteAt([]byte{0xFF}, segHeaderSize+frame1+frameHeaderSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, from := range []uint64{origin, origin + 1} {
		if ck, err := s.ReadTail(from, 0); err == nil {
			t.Fatalf("read from cursor %d over a damaged record = %d bytes, no error", from, len(ck.Data))
		}
	}
}

func TestDecodeFramesDamage(t *testing.T) {
	s := replicaStore(t)
	origin := s.log.NextCursor()
	logAnnotation(t, s, 1, "Annot_1")
	logAnnotation(t, s, 2, "Annot_5")
	full, err := s.ReadTail(origin, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame1 := frameSize(full.Data)

	// An incomplete trailing frame ends the parse cleanly at the boundary.
	for _, cut := range []int64{frame1 + 2, frame1 + frameHeaderSize + 1} {
		recs, consumed, err := DecodeFrames(full.Data[:cut])
		if err != nil || len(recs) != 1 || consumed != frame1 {
			t.Errorf("cut at %d: %d records, consumed %d, err %v; want 1, %d, nil", cut, len(recs), consumed, err, frame1)
		}
	}

	// A CRC mismatch inside a complete frame is an error; consumed marks
	// the last good boundary.
	bad := append([]byte(nil), full.Data...)
	bad[frame1+frameHeaderSize] ^= 0xFF
	recs, consumed, err := DecodeFrames(bad)
	if err == nil || len(recs) != 1 || consumed != frame1 {
		t.Errorf("CRC damage: %d records, consumed %d, err %v; want 1, %d, error", len(recs), consumed, err, frame1)
	}

	// An impossible length prefix is an error, not an infinite loop.
	bad = append([]byte(nil), full.Data...)
	binary.LittleEndian.PutUint32(bad[frame1:frame1+4], 0)
	if _, consumed, err := DecodeFrames(bad); err == nil || consumed != frame1 {
		t.Errorf("zero length: consumed %d, err %v; want %d, error", consumed, err, frame1)
	}
}
