package errlatch_test

import (
	"testing"

	"annotadb/internal/analysis/analysistest"
	"annotadb/internal/analysis/errlatch"
)

// TestErrLatch runs the analyzer over the latch golden package: identity
// comparisons and switch cases against a sentinel, string matching on
// error text, a dropped Seal ticket, and the dropped-Committed shape that
// once caused a silent durability loss, plus the errors.Is forms and one
// suppressed-with-reason best-effort call.
func TestErrLatch(t *testing.T) {
	a := errlatch.New(errlatch.Config{MustUse: []string{"latch.Journal.Committed", "latch.Journal.Seal"}})
	analysistest.Run(t, analysistest.TestData(), a, "latch")
}
