package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// InstallFile durably replaces the file at path with the bytes write
// produces. Every file the server writes whole goes through it — the
// checkpoint, the shard manifest, the dataset file and the rewritten WAL
// log — so all of them follow one install rule: write a temp file in the
// same directory, fsync it, set mode 0644, rename it over path, then fsync
// the directory so the rename itself survives a crash. A reader sees either
// the previous file or the new one, never a torn mixture, and a failed
// install leaves the previous file in place. Errors from write are
// returned unwrapped.
func InstallFile(path string, write func(w io.Writer) error) error {
	dir, name := filepath.Dir(path), filepath.Base(path)
	tmp, err := os.CreateTemp(dir, ".annotadb-"+name+"-*")
	if err != nil {
		return fmt.Errorf("storage: install %s: %w", name, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	err = tmp.Sync()
	if err == nil {
		err = tmp.Chmod(0o644) // CreateTemp opens 0600
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("storage: install %s: %w", name, err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making a rename, creation or removal inside
// it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	return nil
}
