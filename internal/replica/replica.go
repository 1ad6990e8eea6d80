// Package replica implements read replicas for the serving stack: a
// primary-side Source that pages the durable store's write-ahead log over a
// transport, and a follower that bootstraps from the primary's checkpoint,
// tails the log, and applies the records through its own serving core —
// publishing the same immutable snapshots a primary would, minus the write
// path.
//
// # Protocol
//
// A follower's position is one log cursor: the cursor of the next record it
// needs. It bootstraps from the primary's checkpoint and starts at the
// checkpoint's covered cursor, the first record the checkpoint does not
// hold. Cursors never change meaning within one primary run, so a follower
// keeps tailing across the primary's checkpoints for as long as its cursor
// is retained. The source serves two answers to a tail request:
//
//   - A retained cursor: the frames of the records from it on, plus the
//     log's end cursor and a conservative primary snapshot sequence
//     (sampled before the end, so a follower that applies through the end
//     may advertise it — see the watermark contract below).
//   - A cursor the primary trimmed (a checkpoint covered it) or one past
//     the end: ErrConflict. The follower discards its state and
//     re-bootstraps from the current checkpoint.
//
// The follower also treats a changed run id as a conflict: a restarted
// primary may reuse the cursors of an unsynced tail it lost, so a cursor
// from the previous run names no record of this one.
//
// # Watermark contract
//
// The sequence a tail response carries is sampled before the log end it
// carries. Every acknowledged primary write publishes its snapshot (in seq
// order) before the ack, and appends its log record before that publish; so
// any write acknowledged with seq ≤ the sample already had its record below
// the sampled end. A follower that has applied every record below that
// end therefore reflects every write acknowledged at or before the sample,
// and may serve the sample as its read-your-writes watermark. Sequences
// restart when the primary process does; the run id ties a watermark to one
// primary run, and a follower adopts a new run id by resetting its
// watermark to the next sample.
package replica

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"

	"annotadb/internal/storage"
	"annotadb/internal/wal"
)

// Transport header names of the replication endpoints.
const (
	// HeaderEpoch carries the generation of a checkpoint.
	HeaderEpoch = "X-Annotadb-Epoch"
	// HeaderRunID identifies one primary process run; a follower treats a
	// change as a conflict.
	HeaderRunID = "X-Annotadb-Run-Id"
	// HeaderSeq is the conservative primary snapshot sequence of a chunk.
	HeaderSeq = "X-Annotadb-Seq"
	// HeaderNext is the cursor after a chunk's last record.
	HeaderNext = "X-Annotadb-Next"
	// HeaderEnd is the log's end cursor observed with a chunk.
	HeaderEnd = "X-Annotadb-End"
)

// ErrConflict reports a tail position the source cannot serve: a checkpoint
// trimmed the cursor, a primary restart lost the records it names, or it
// comes from another history. The follower's only correct move is to
// re-bootstrap from the current checkpoint.
var ErrConflict = errors.New("replica: log position conflict; re-bootstrap from the checkpoint")

// Chunk is one tail page: frames plus the watermark and log end they were
// read against.
type Chunk struct {
	// From is the cursor of Data's first record; Next the cursor after its
	// last.
	From, Next uint64
	// Seq is the conservative primary snapshot sequence: sampled before
	// End, so it is a valid watermark once the follower has applied every
	// record below End.
	Seq uint64
	// End is the log's end cursor observed with the read.
	End uint64
	// Data holds zero or more complete frames.
	Data []byte
}

// Source serves a durable primary's checkpoint and log tail to followers.
// Safe for concurrent use from transport handlers.
type Source struct {
	store *wal.Store
	seq   func() uint64
	runID string
}

// NewSource wraps a primary's durable store. seq must return the serving
// core's current published snapshot sequence; it is sampled before every
// tail read to uphold the watermark contract.
func NewSource(store *wal.Store, seq func() uint64) (*Source, error) {
	if store == nil {
		return nil, errors.New("replica: source requires a durable store")
	}
	if seq == nil {
		return nil, errors.New("replica: source requires a snapshot sequence probe")
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, fmt.Errorf("replica: generate run id: %w", err)
	}
	return &Source{store: store, seq: seq, runID: hex.EncodeToString(b[:])}, nil
}

// RunID identifies this primary process run.
func (s *Source) RunID() string { return s.runID }

// Checkpoint returns the current checkpoint file's path and head metadata.
// The path stays valid across concurrent checkpoint installs (they rename a
// new file over it; an already-open descriptor keeps reading the old one).
func (s *Source) Checkpoint() (string, storage.CheckpointMeta, error) {
	path := wal.CheckpointPath(s.store.Dir())
	meta, err := storage.ReadCheckpointMeta(path)
	return path, meta, err
}

// OpenCheckpoint opens the current checkpoint for streaming to a follower,
// returning the open file alongside its head metadata — both read through
// one descriptor, so a checkpoint installing concurrently cannot desync
// them (the rename leaves the open descriptor on the old file). wal.Open
// always installs a checkpoint, so a missing one is an error, which the
// caller reports and a follower retries; capturing one here would run the
// serving writer's checkpoint from a reader's goroutine. The caller owns
// closing the file; its read offset is rewound to the start.
func (s *Source) OpenCheckpoint() (*os.File, storage.CheckpointMeta, error) {
	f, err := os.Open(wal.CheckpointPath(s.store.Dir()))
	if err != nil {
		return nil, storage.CheckpointMeta{}, err
	}
	meta, err := storage.ReadCheckpointMetaFrom(f)
	if err != nil {
		f.Close()
		return nil, storage.CheckpointMeta{}, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, storage.CheckpointMeta{}, err
	}
	return f, meta, nil
}

// Tail reads one chunk of log frames for a follower at cursor from.
// Returns ErrConflict when the cursor was trimmed or lies past the end (the
// follower must re-bootstrap); other errors are transient (retry after
// backoff).
func (s *Source) Tail(from uint64, maxBytes int64) (Chunk, error) {
	// Sample the primary sequence BEFORE the log end is read: the watermark
	// contract (package doc) depends on this order.
	p := s.seq()
	tc, err := s.store.ReadTail(from, maxBytes)
	var trimmed *wal.ErrCursorTrimmed
	if errors.Is(err, wal.ErrTailOutOfRange) || errors.As(err, &trimmed) {
		return Chunk{Seq: p}, ErrConflict
	}
	if err != nil {
		return Chunk{}, err
	}
	return Chunk{From: from, Next: from + uint64(tc.Records), Seq: p, End: tc.End, Data: tc.Data}, nil
}
