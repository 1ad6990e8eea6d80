package main

import (
	"bytes"
	"context"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// copyTree copies a fixture directory into a fresh temp dir.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), filepath.Base(src))
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// treeBytes maps every file under root to its bytes, and every directory
// to nil.
func treeBytes(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			files[path] = nil
			return err
		}
		files[path], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestUpgradeFromByteAddressedWAL opens data directories written by the
// build before the segmented WAL (see testdata/upgrade/README.md). A
// directory that build closed cleanly is converted and serves exactly the
// rules that build served, on the first open and after a restart. One that
// still holds log records is refused, and the refusal changes no file.
func TestUpgradeFromByteAddressedWAL(t *testing.T) {
	fixtures := filepath.Join("testdata", "upgrade")
	flags := func(dir, shards string) []string {
		return []string{"-data-dir", dir, "-shards", shards, "-addr", "127.0.0.1:0",
			"-min-support", "0.2", "-min-confidence", "0.6", "-events=false"}
	}
	for _, tc := range []struct{ name, shards string }{{"single", "1"}, {"sharded", "2"}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyTree(t, filepath.Join(fixtures, tc.name))
			want, err := os.ReadFile(filepath.Join(fixtures, tc.name+".rules.json"))
			if err != nil {
				t.Fatal(err)
			}
			for _, round := range []string{"converting open", "reopen"} {
				url, _, cancel, done := startRun(t, flags(dir, tc.shards))
				resp, err := http.Get(url + "/rules")
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: GET /rules differs from the previous build's:\n got %s\nwant %s", round, got, want)
				}
				stopRun(t, cancel, done)
			}
			legacy, _ := filepath.Glob(filepath.Join(dir, "*", "wal.log"))
			top, _ := filepath.Glob(filepath.Join(dir, "wal.log"))
			if len(legacy)+len(top) != 0 {
				t.Errorf("converted directory still holds %v", append(top, legacy...))
			}
		})
	}
	t.Run("crashed", func(t *testing.T) {
		dir := copyTree(t, filepath.Join(fixtures, "crashed"))
		before := treeBytes(t, dir)
		err := run(context.Background(), flags(dir, "1"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "close the directory cleanly with that build first") {
			t.Fatalf("open of a directory whose wal.log holds records = %v, want the refusal", err)
		}
		if after := treeBytes(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("the refusal changed the directory: %d entries before, %d after", len(before), len(after))
		}
	})
}

// TestUpgradeFromRuleCheckpoint opens data directories written by the build
// whose checkpoints (format version 3) also held the rule tiers and pattern
// catalogs (see testdata/upgrade/README.md). This build re-mines the
// checkpointed relation instead: the directory that build closed cleanly,
// and the one it was killed on with records still in its log, serve
// exactly the rules that build served, on the first open and after a
// restart. The killed one's close folds the replayed records into a
// version 4 checkpoint, which its restart reads; the clean one has nothing
// to fold and keeps its version 3 checkpoint.
func TestUpgradeFromRuleCheckpoint(t *testing.T) {
	fixtures := filepath.Join("testdata", "upgrade", "v3")
	for name, version := range map[string]byte{"single": 3, "crashed": 4} {
		t.Run(name, func(t *testing.T) {
			dir := copyTree(t, filepath.Join(fixtures, name))
			want, err := os.ReadFile(filepath.Join(fixtures, name+".rules.json"))
			if err != nil {
				t.Fatal(err)
			}
			for _, round := range []string{"first open", "reopen"} {
				url, _, cancel, done := startRun(t, []string{"-data-dir", dir, "-addr", "127.0.0.1:0",
					"-min-support", "0.2", "-min-confidence", "0.6", "-events=false"})
				resp, err := http.Get(url + "/rules")
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: GET /rules differs from the previous build's:\n got %s\nwant %s", round, got, want)
				}
				stopRun(t, cancel, done)
			}
			ck, err := os.ReadFile(filepath.Join(dir, "checkpoint.db"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(ck, []byte{'A', 'D', 'B', 'C', 'K', 'P', 'T', version}) {
				t.Errorf("checkpoint after the restart opens with %q, want format version %d", ck[:8], version)
			}
		})
	}
}
