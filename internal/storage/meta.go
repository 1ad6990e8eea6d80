package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// CheckpointMeta is the cheap head of a checkpoint file: the generation
// identity and log coverage, read without decoding (or CRC-verifying) the
// state sections. The replication source peeks it to label the checkpoint
// it streams; since the process wrote the file itself, skipping the
// full-body CRC is safe — a follower that bootstraps from the file still
// runs the complete ReadCheckpoint validation.
type CheckpointMeta struct {
	// Epoch is the checkpoint generation.
	Epoch uint64
	// CoveredCursor is the first log cursor the checkpoint's state does not
	// hold; see Checkpoint.CoveredCursor.
	CoveredCursor uint64
	// ConfigFingerprint identifies the mining configuration; see
	// Checkpoint.ConfigFingerprint.
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
	head = head[:n]
	legacy, err := readMagic(head)
	if err != nil {
		return CheckpointMeta{}, err
	}
	d := &decoder{buf: head[len(checkpointMagic):]}
	epoch, err := d.uvarint("epoch")
	if err != nil {
		return CheckpointMeta{}, err
	}
	covered, err := d.coveredCursor(legacy)
	if err != nil {
		return CheckpointMeta{}, err
	}
	fpLen, err := d.uvarint("config fingerprint length")
	if err != nil {
		return CheckpointMeta{}, err
	}
	fp, err := d.bytes(fpLen, "config fingerprint")
	if err != nil {
		return CheckpointMeta{}, err
	}
	return CheckpointMeta{Epoch: epoch, CoveredCursor: covered, ConfigFingerprint: string(fp)}, nil
}
