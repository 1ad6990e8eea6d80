package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestReadCheckpointMetaMatchesFullDecode(t *testing.T) {
	ck := checkpointFixture(t)
	ck.Epoch = 7
	ck.CoveredCursor = 12345
	path := filepath.Join(t.TempDir(), "checkpoint.db")
	if err := WriteCheckpointFile(path, ck); err != nil {
		t.Fatal(err)
	}

	meta, err := ReadCheckpointMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != ck.Epoch || meta.CoveredCursor != ck.CoveredCursor || meta.ConfigFingerprint != ck.ConfigFingerprint {
		t.Errorf("meta = %+v, want epoch %d covered %d fp %q", meta, ck.Epoch, ck.CoveredCursor, ck.ConfigFingerprint)
	}

	// The reader variant sees the same head through an open descriptor.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if metaFrom, err := ReadCheckpointMetaFrom(f); err != nil || metaFrom != meta {
		t.Errorf("ReadCheckpointMetaFrom = %+v, %v; want %+v", metaFrom, err, meta)
	}
}

func TestReadCheckpointMetaErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadCheckpointMeta(filepath.Join(dir, "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file = %v, want os.ErrNotExist to pass through", err)
	}
	bad := filepath.Join(dir, "garbage")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpointMeta(bad); err == nil {
		t.Error("garbage file produced a checkpoint meta")
	}
}
