package wal

import (
	"errors"
	"fmt"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/storage"
)

// DefaultTailChunkBytes bounds one ReadTail chunk when the caller passes no
// limit.
const DefaultTailChunkBytes = 1 << 20

// ErrTailOutOfRange is returned by ReadTail when the requested cursor lies
// beyond the log's end. The caller knows about records this log does not
// hold (a primary restart lost an unsynced tail); replication clients
// respond by re-bootstrapping from the checkpoint.
var ErrTailOutOfRange = errors.New("wal: tail cursor beyond log end")

// TailChunk is one ReadTail result: the frames of the records From,
// From+1, …, plus the log end observed before the read.
type TailChunk struct {
	// From is the cursor of Data's first record.
	From uint64
	// Data holds zero or more whole record frames; it never ends mid-frame.
	Data []byte
	// Records is the number of frames in Data.
	Records int
	// End is the log's next cursor, observed before the read: a caller that
	// has consumed every record below End has caught up with the log as of
	// the read. From+Records falls short of End when the chunk limit cut
	// the read.
	End uint64
}

// ReadTail reads the frames of the records from cursor from on, up to
// maxBytes of them (0 means DefaultTailChunkBytes) but always at least one,
// so an oversized record never wedges the reader. A cursor below the oldest
// retained record returns *ErrCursorTrimmed, one past the end
// ErrTailOutOfRange. Safe from any goroutine: it reads through
// SegmentedLog.ReadFrom, which runs beside the writer's appends and trims.
func (s *Store) ReadTail(from uint64, maxBytes int64) (TailChunk, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultTailChunkBytes
	}
	ck := TailChunk{From: from, End: s.log.NextCursor()}
	switch {
	case from > ck.End:
		return ck, ErrTailOutOfRange
	case from == ck.End:
		return ck, nil // caught up
	}
	// Every frame takes more than frameHeaderSize+1 bytes, which bounds how
	// many records the limit can let through; none past End are read.
	limit := min(ck.End-from, uint64(maxBytes/(frameHeaderSize+2))+1)
	payloads, err := s.log.ReadFrom(from, int(limit))
	if err != nil {
		return ck, err
	}
	for _, p := range payloads {
		if ck.Records > 0 && int64(len(ck.Data)+frameHeaderSize+len(p)) > maxBytes {
			break
		}
		if ck.Data, err = appendFrame(ck.Data, p); err != nil {
			return ck, err
		}
		ck.Records++
	}
	return ck, nil
}

// DecodeFrames parses a run of record frames as served by ReadTail. An
// incomplete trailing frame (a transport cut the chunk short) ends the
// parse cleanly: the decoded prefix and the number of bytes it consumed are
// returned, and the caller resumes from there. Any other torn or damaged
// end — a zero or impossible length, a CRC mismatch — and an undecodable
// payload are errors; the consumed count then marks the last good frame
// boundary.
func DecodeFrames(data []byte) ([]Record, int64, error) {
	var recs []Record
	var decodeErr error
	n, end, err := scanFrames(data, func(payload []byte) bool {
		rec, derr := decodePayload(payload)
		if decodeErr = derr; derr != nil {
			return false
		}
		recs = append(recs, rec)
		return true
	})
	switch {
	case decodeErr != nil:
		return recs, n, fmt.Errorf("wal: frame at chunk offset %d: %w", n, decodeErr)
	case end == frameClean || end == frameShort:
		return recs, n, nil
	default:
		return recs, n, fmt.Errorf("wal: frame at chunk offset %d: %v", n, err)
	}
}

// RestoreEngine builds an incremental engine from a decoded checkpoint, the
// construction Open recovers with: a full mine of the checkpoint's relation
// (see incremental.Restore) with the checkpoint's lifetime counters put
// back. ReadCheckpoint always rebuilds a live relation for the engine to
// own; Checkpoint.Relation is an interface only so that writers can hand in
// a pinned view. The caller owns the fingerprint comparison (see
// Fingerprint); replication clients compare the checkpoint's fingerprint
// against their own configuration before restoring.
func RestoreEngine(ck *storage.Checkpoint, cfg mining.Config, eopts incremental.Options) (*incremental.Engine, error) {
	rel, ok := ck.Relation.(*relation.Relation)
	if !ok {
		return nil, fmt.Errorf("wal: restore engine: checkpoint relation is %T, not a live relation", ck.Relation)
	}
	return incremental.Restore(rel, cfg, eopts, statsFromCounters(ck.Counters))
}

// Fingerprint is the canonical fingerprint of the state-determining mining
// configuration facets — the string checkpoints record and Open compares.
// Exported so a replication follower can refuse a primary checkpoint mined
// under different thresholds exactly as a local recovery would.
func Fingerprint(cfg mining.Config, tag string) string {
	return configFingerprint(cfg, tag)
}

// FlushWindow reports the store's group-commit linger window (0 when group
// commit is off): the dominant component of a write's admission-to-ack wait,
// which transports fold into their backpressure hints.
func (s *Store) FlushWindow() time.Duration {
	if !s.opts.groupCommit() {
		return 0
	}
	return s.opts.flushWindow()
}
