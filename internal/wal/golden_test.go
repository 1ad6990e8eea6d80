package wal

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/disk from the current writers")

// TestDiskFormatGolden writes a fixed sequence through the log writers and
// compares every file it leaves, byte for byte, with testdata/disk: a
// wal.log with its header and three frames once per record encoding, a log
// rewritten by TruncateKeep, and one sealed plus one active events segment.
// It uses only long-standing API, so it also runs against older builds —
// the check that a refactor did not move the on-disk formats. After an
// intended format change rewrite the files with -update-golden and review
// the diff.
func TestDiskFormatGolden(t *testing.T) {
	dir := t.TempDir()
	for _, enc := range []Encoding{EncodingBinary, EncodingJSON} {
		l, err := OpenLog(filepath.Join(dir, "wal-"+enc.String()+".log"), 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range testRecords() {
			if _, err := l.Append(rec, enc); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Epoch 7 with three records, rewritten as epoch 8 keeping the last two.
	l, err := OpenLog(filepath.Join(dir, "wal-truncated.log"), 7)
	if err != nil {
		t.Fatal(err)
	}
	var keepFrom int64
	for i, rec := range testRecords() {
		if _, err := l.Append(rec, EncodingBinary); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			keepFrom = l.Size()
		}
	}
	if err := l.TruncateKeep(8, keepFrom); err != nil {
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
