package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/itemset"
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
// whole, so progress is always possible. Safe from any goroutine: the read
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
	trimmed, firstFrame := trimFrames(buf)
	if len(trimmed) == 0 && firstFrame > int64(len(buf)) && from+firstFrame <= size {
		// The first frame alone exceeds the chunk limit; fetch it whole so
		// the caller is never wedged behind an oversized batch.
		if buf, err = s.readTailAt(from, firstFrame); err != nil {
			return ck, err
		}
		trimmed, _ = trimFrames(buf)
	}
	ck.Data = trimmed
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

// trimFrames cuts data to the last complete frame boundary, walking the
// length prefixes. It also returns the total size of the first frame (header
// included) when data begins with a frame header whose frame does not fit —
// 0 otherwise — so ReadTail can extend an undersized read. A zero or
// impossible length prefix stops the walk (the bytes beyond it are not
// frames); DecodeFrames reports such damage when the caller applies the
// chunk.
func trimFrames(data []byte) (trimmed []byte, firstFrame int64) {
	off := int64(0)
	for int64(len(data))-off >= frameHeaderSize {
		length := binary.LittleEndian.Uint32(data[off : off+4])
		if length == 0 || length > maxRecordBytes {
			break
		}
		end := off + frameHeaderSize + int64(length)
		if end > int64(len(data)) {
			if off == 0 {
				firstFrame = end
			}
			break
		}
		off = end
	}
	return data[:off], firstFrame
}

// DecodeFrames parses a run of record frames as served by ReadTail. An
// incomplete trailing frame (a transport cut the chunk short) ends the
// parse cleanly: the decoded prefix and the number of bytes it consumed are
// returned, and the caller resumes from there. Damage inside a complete
// frame — a CRC mismatch, an impossible length, an undecodable payload —
// is an error; the consumed count then marks the last good frame boundary.
func DecodeFrames(data []byte) ([]Record, int64, error) {
	var recs []Record
	off := int64(0)
	for int64(len(data))-off >= frameHeaderSize {
		length := binary.LittleEndian.Uint32(data[off : off+4])
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length == 0 || length > maxRecordBytes {
			return recs, off, fmt.Errorf("wal: frame at chunk offset %d has impossible length %d", off, length)
		}
		end := off + frameHeaderSize + int64(length)
		if end > int64(len(data)) {
			break // incomplete trailing frame; resume from off
		}
		payload := data[off+frameHeaderSize : end]
		if crc32.ChecksumIEEE(payload) != want {
			return recs, off, fmt.Errorf("wal: frame at chunk offset %d failed its CRC", off)
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return recs, off, fmt.Errorf("wal: frame at chunk offset %d: %w", off, err)
		}
		recs = append(recs, rec)
		off = end
	}
	return recs, off, nil
}

// resolveAnnotationItem resolves a logged annotation token against dict.
// Lookup-first matters: a derived generalization label is a legal annotation
// in an update batch but is interned under a different kind, so blindly
// re-interning it as a raw annotation would fail replay forever.
func resolveAnnotationItem(dict *relation.Dictionary, token string) (itemset.Item, error) {
	if it, ok := dict.Lookup(token); ok {
		if !it.IsAnnotation() {
			return itemset.None, badRecord("token %q is a data value, not an annotation", token)
		}
		return it, nil
	}
	return dict.InternAnnotation(token)
}

// resolveAnnotations converts a logged annotation batch back into engine
// updates against dict, re-interning tokens in log order.
func resolveAnnotations(dict *relation.Dictionary, updates []Update) ([]relation.AnnotationUpdate, error) {
	out := make([]relation.AnnotationUpdate, 0, len(updates))
	for _, u := range updates {
		it, err := resolveAnnotationItem(dict, u.Annotation)
		if err != nil {
			return nil, fmt.Errorf("wal: replay annotation %q: %w", u.Annotation, err)
		}
		out = append(out, relation.AnnotationUpdate{Index: u.Tuple, Annotation: it})
	}
	return out, nil
}

// resolveTuples converts a logged tuple batch back into relation tuples
// against dict, re-interning tokens in log order.
func resolveTuples(dict *relation.Dictionary, specs []TupleSpec) ([]relation.Tuple, error) {
	out := make([]relation.Tuple, 0, len(specs))
	for _, spec := range specs {
		items := make([]itemset.Item, 0, len(spec.Values)+len(spec.Annotations))
		for _, tok := range spec.Values {
			it, err := dict.InternData(tok)
			if err != nil {
				return nil, fmt.Errorf("wal: replay tuple value %q: %w", tok, err)
			}
			items = append(items, it)
		}
		for _, tok := range spec.Annotations {
			it, err := resolveAnnotationItem(dict, tok)
			if err != nil {
				return nil, fmt.Errorf("wal: replay tuple annotation %q: %w", tok, err)
			}
			items = append(items, it)
		}
		out = append(out, relation.NewTuple(items...))
	}
	return out, nil
}

// RestoreEngine rebuilds an incremental engine from a decoded checkpoint,
// the same construction Open uses when it recovers. The caller owns the
// fingerprint comparison (see Fingerprint); replication clients compare the
// checkpoint's fingerprint against their own configuration before
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
func Fingerprint(cfg mining.Config, eopts incremental.Options, tag string) string {
	return configFingerprint(cfg, eopts, tag)
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
