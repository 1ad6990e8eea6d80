package snapshotimmut_test

import (
	"testing"

	"annotadb/internal/analysis/analysistest"
	"annotadb/internal/analysis/snapshotimmut"
)

// TestSnapshotImmut runs the analyzer over a two-package golden tree: snap
// owns the View, Index and by-value Bits snapshot types (its
// construction-time mutations, Index.Extend's in-place append among them,
// must pass), consumer mutates published views every way the analyzer
// flags, including the through-a-method-result write behind an earlier
// torn-read bug, an append into an index's shared posting array
// and writes into a bitmap handed out by value, plus one sanctioned
// suppressed-with-reason mutation.
func TestSnapshotImmut(t *testing.T) {
	a := snapshotimmut.New(snapshotimmut.Config{Types: []string{"snap.View", "snap.Index", "snap.Bits"}})
	analysistest.Run(t, analysistest.TestData(), a, "snap", "consumer")
}
