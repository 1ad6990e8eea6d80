package lockio_test

import (
	"testing"

	"annotadb/internal/analysis/analysistest"
	"annotadb/internal/analysis/lockio"
)

// TestLockIO runs the analyzer over the lockuse golden package: fsync, file
// writes and a file install under the hot lock (the shape the WAL's syncLog
// is the sanctioned exception to), channel sends under the lock, Lock without
// Unlock on early-return and fall-through paths, plus the clean shapes —
// deferred unlock, branch release, goroutine bodies — and one
// suppressed-with-reason fsync.
func TestLockIO(t *testing.T) {
	a := lockio.New(lockio.Config{
		Locks: []string{"lockuse.Store.mu"},
		IO:    []string{"os.File.*", "lockuse.Log.Sync", "lockuse.InstallFile"},
	})
	analysistest.Run(t, analysistest.TestData(), a, "lockuse")
}
