package wal

import (
	"errors"
	"fmt"
	"io"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/storage"
)

// LogHeaderSize is the byte offset of the first record frame in a log file
// (the fixed magic + epoch header). It is the origin of the offset space
// ReadTail serves: a follower that has applied nothing starts tailing at
// LogHeaderSize.
const LogHeaderSize = logHeaderSize

// DefaultTailChunkBytes bounds one ReadTail chunk when the caller passes no
// limit.
const DefaultTailChunkBytes = 1 << 20

// ErrTailOutOfRange is returned by ReadTail when the requested offset lies
// beyond the current log end. Within one epoch that means the caller knows
// about bytes this log does not hold (a primary restart lost an unsynced
// tail); replication clients respond by re-bootstrapping from the
// checkpoint.
var ErrTailOutOfRange = errors.New("wal: tail offset beyond log end")

// TailChunk is one ReadTail result: a run of whole record frames starting at
// From, plus the log identity (epoch) and end (Size) observed atomically
// with the read.
type TailChunk struct {
	// Epoch is the checkpoint generation the log extended at read time. A
	// caller that requested a different epoch must not apply Data.
	Epoch uint64
	// From is the byte offset Data starts at (header-relative log offset,
	// i.e. LogHeaderSize is the first record).
	From int64
	// Data holds zero or more complete frames; it never ends mid-frame.
	Data []byte
	// Size is the log size observed by the read: the offset a caller that
	// keeps consuming will eventually reach. From+len(Data) may fall short
	// of Size when the chunk limit cut the read.
	Size int64
}

// ReadTail reads up to maxBytes (0 means DefaultTailChunkBytes) of record
// frames starting at byte offset from, trimmed to the last complete frame
// boundary — except that a single frame larger than maxBytes is returned
// whole, so progress is always possible. Data stops before a damaged frame;
// a read that starts at one is an error. Safe from any goroutine: the read
// holds the store's log mutex, which excludes the checkpoint truncation's
// file swap, and is bounded by the atomically mirrored log size, below
// which every byte is fully written.
//
// The returned chunk's Epoch identifies the generation the bytes belong to.
// Callers tailing a different generation must discard Data and resolve the
// epoch change (see internal/replica). A from beyond the log end returns
// ErrTailOutOfRange alongside the observed epoch and size.
func (s *Store) ReadTail(from, maxBytes int64) (TailChunk, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultTailChunkBytes
	}
	if maxBytes < frameHeaderSize {
		// A read too short for even one frame header could never report the
		// first frame's size, wedging the extend-to-whole-frame path.
		maxBytes = frameHeaderSize
	}
	if from < logHeaderSize {
		from = logHeaderSize
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	// The epoch only changes under logMu (TruncateKeep via finishTruncate),
	// so it is stable for the duration of the read and names the file the
	// bytes come from. The size bound must come from the atomic mirror, not
	// Log.Size(): the writer mutates the latter without any lock, while the
	// mirror is stored after each fully written append — every byte below
	// it is on the file.
	ck := TailChunk{Epoch: s.log.Epoch(), From: from}
	size := s.logBytes.Load()
	if size < logHeaderSize {
		size = logHeaderSize
	}
	ck.Size = size
	if from > size {
		return ck, ErrTailOutOfRange
	}
	if from == size {
		return ck, nil // caught up
	}
	n := size - from
	if n > maxBytes {
		n = maxBytes
	}
	buf, err := s.readTailAt(from, n)
	if err != nil {
		return ck, err
	}
	used, end, ferr := scanFrames(buf, nil)
	if whole := frameSize(buf); used == 0 && end == frameShort && whole > int64(len(buf)) && from+whole <= size {
		// The first frame alone exceeds the chunk limit; fetch it whole so
		// the caller is never wedged behind an oversized batch.
		if buf, err = s.readTailAt(from, whole); err != nil {
			return ck, err
		}
		used, end, ferr = scanFrames(buf, nil)
	}
	// A short end is the chunk limit (or a concurrent truncation) cutting
	// the read; any other torn end below the mirrored size is damage.
	if used == 0 && end != frameClean && end != frameShort {
		return ck, fmt.Errorf("wal: read tail at offset %d: %v", from, ferr)
	}
	ck.Data = buf[:used]
	return ck, nil
}

// readTailAt reads exactly [from, from+n) from the log file. Caller holds
// logMu and has bounded n by the mirrored size, so a short read means the
// file shrank underneath a stale mirror (a truncation completing
// concurrently); the short result is still frame-consistent for the epoch
// reported alongside it.
func (s *Store) readTailAt(from, n int64) ([]byte, error) {
	buf := make([]byte, n)
	read, err := s.log.f.ReadAt(buf, from)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("wal: read tail: %w", err)
	}
	return buf[:read], nil
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

// RestoreEngine rebuilds an incremental engine from a decoded checkpoint,
// the construction Open recovers with. ReadCheckpoint always rebuilds a live
// relation for the restored engine to own; Checkpoint.Relation is an
// interface only so that writers can hand in a pinned view. The caller owns
// the fingerprint comparison (see Fingerprint); replication clients compare
// the checkpoint's fingerprint against their own configuration before
// restoring.
func RestoreEngine(ck *storage.Checkpoint, cfg mining.Config, eopts incremental.Options) (*incremental.Engine, error) {
	rel, ok := ck.Relation.(*relation.Relation)
	if !ok {
		return nil, fmt.Errorf("wal: restore engine: checkpoint relation is %T, not a live relation", ck.Relation)
	}
	return incremental.Restore(rel, cfg, eopts, incremental.State{
		Valid:         ck.Valid,
		Candidates:    ck.Candidates,
		DataPatterns:  ck.DataPatterns,
		AnnotPatterns: ck.AnnotPatterns,
		Stats:         statsFromCounters(ck.Counters),
	})
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
