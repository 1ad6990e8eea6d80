package wal

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"annotadb/internal/incremental"
	"annotadb/internal/relation"
	"annotadb/internal/storage"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/disk from the current writers")

// TestDiskFormatGolden writes a fixed sequence through the log and
// checkpoint writers and compares every file it leaves, byte for byte, with
// testdata/disk: a write-ahead log segment set whose oldest segment a
// checkpoint's trim deleted, one sealed plus one active events segment, and
// a checkpoint — the check that a refactor did not move the on-disk
// formats. After an intended format change rewrite the files with
// -update-golden and review the diff.
func TestDiskFormatGolden(t *testing.T) {
	dir := t.TempDir()
	// 48-byte segments: the first two records fill the first segment, the
	// third a second, and a trim below cursor 3 deletes the first.
	l, err := OpenSegmented(SegmentedOptions{Dir: filepath.Join(dir, "wal"), Prefix: "wal", SegmentBytes: 48, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords() {
		payload, err := encodePayload(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TrimBelow(3); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// 64-byte segments: the fourth 15-byte frame seals the first segment.
	seg, err := OpenSegmented(SegmentedOptions{Dir: filepath.Join(dir, "events"), Prefix: "events", SegmentBytes: 64, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if _, err := seg.Append([]byte(fmt.Sprintf("event-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	ck := &storage.Checkpoint{
		CheckpointMeta: storage.CheckpointMeta{Epoch: 2, CoveredCursor: 3, ConfigFingerprint: configFingerprint(testCfg(), "")},
		Relation: relation.FromTokens(
			[][]string{{"28", "85"}, {"28", "41"}, {"62"}},
			[][]string{{"Annot_1", "Annot_5"}, nil, {"Annot_5"}},
		),
		Counters: countersFromStats(incremental.Stats{Bootstraps: 1, Case1: 2, Case3: 3, Removals: 4, Remines: 5, Promotions: 6, Demotions: 7, Discoveries: 8}),
	}
	if err := storage.WriteCheckpointFile(CheckpointPath(dir), ck); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "disk")
	got := readTree(t, dir)
	if *updateGolden {
		if err := os.RemoveAll(golden); err != nil {
			t.Fatal(err)
		}
		for name, b := range got {
			path := filepath.Join(golden, filepath.FromSlash(name))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := readTree(t, golden)
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: not written", name)
		} else if !bytes.Equal(g, w) {
			t.Errorf("%s differs from the golden file:\n got %x\nwant %x", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written but has no golden file", name)
		}
	}
}

// readTree maps every regular file under root to its bytes, keyed by its
// slash-separated path relative to root.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := fs.WalkDir(os.DirFS(root), ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		files[name], err = os.ReadFile(filepath.Join(root, name))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
