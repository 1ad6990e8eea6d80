package snapshotimmut_test

import (
	"testing"

	"annotadb/internal/analysis/analysistest"
	"annotadb/internal/analysis/snapshotimmut"
)

// TestSnapshotImmut runs the analyzer over a two-package golden tree: snap
// owns the View and Index snapshot types (its construction-time mutations,
// Index.Extend's in-place append among them, must pass), consumer mutates
// published views every way the analyzer flags, including the
// through-a-method-result write that made PR 3's torn-read bug possible and
// an append into an index's shared posting array, plus one sanctioned
// suppressed-with-reason mutation.
func TestSnapshotImmut(t *testing.T) {
	a := snapshotimmut.New(snapshotimmut.Config{Types: []string{"snap.View", "snap.Index"}})
	analysistest.Run(t, analysistest.TestData(), a, "snap", "consumer")
}
