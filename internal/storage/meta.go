package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// CheckpointMeta is the head of a checkpoint: the generation identity, the
// log coverage and the mining configuration. ReadCheckpointMeta reads it
// without decoding (or CRC-verifying) the state sections. The replication
// source peeks it to label the checkpoint it streams; since the process
// wrote the file itself, skipping the full-body CRC is safe — a follower
// that bootstraps from the file still runs the complete ReadCheckpoint
// validation.
type CheckpointMeta struct {
	// Epoch is the checkpoint generation, one more than its predecessor's.
	// A sharded manifest records each shard's epoch as a floor, so a shard
	// directory restored from an older backup is refused.
	Epoch uint64
	// CoveredCursor is the log's next cursor at the moment the checkpoint's
	// state was captured: every log record below it is folded into the
	// checkpoint, every record at or after it is not. Checkpoints are
	// written in the background while the writer keeps appending, so the
	// log can legitimately run past it. A version 2 checkpoint reads as 1:
	// it predates the cursor-addressed log, which starts at cursor 1.
	CoveredCursor uint64
	// ConfigFingerprint identifies the mining configuration the state was
	// produced under. Recovery refuses a checkpoint whose fingerprint does
	// not match the running configuration, so a mistyped flag cannot
	// silently change the rules a directory serves.
	ConfigFingerprint string
}

// checkpointMetaHead bounds the head read: magic, two uvarints, and the
// fingerprint (a short fixed-shape string) fit comfortably.
const checkpointMetaHead = 4096

// ReadCheckpointMeta reads a checkpoint file's head fields without loading
// or validating the state sections. os.ErrNotExist passes through so
// callers can distinguish "no checkpoint yet".
func ReadCheckpointMeta(path string) (CheckpointMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return CheckpointMeta{}, err
	}
	defer f.Close()
	return ReadCheckpointMetaFrom(f)
}

// ReadCheckpointMetaFrom is ReadCheckpointMeta over an already-open reader:
// callers that both describe and stream one checkpoint read the head from
// the same descriptor they serve, so a concurrent checkpoint install (a
// rename over the path) cannot split the two.
func ReadCheckpointMetaFrom(r io.Reader) (CheckpointMeta, error) {
	head := make([]byte, checkpointMetaHead)
	n, err := io.ReadFull(r, head)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return CheckpointMeta{}, fmt.Errorf("storage: read checkpoint meta: %w", err)
	}
	meta, _, _, err := decodeHead(head[:n])
	return meta, err
}
