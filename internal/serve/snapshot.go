package serve

import (
	"annotadb/internal/incremental"
	"annotadb/internal/predict"
)

// Snapshot is one published generation of serving state: the engine's
// capture (its View, Rules, Candidates, N, MinCount, RelVersion and engine
// counters, all taken under one engine lock acquisition) plus what publish
// derives from it. Everything in it is immutable, so a Snapshot may be read
// by any number of goroutines without synchronization, and a reader that
// holds one observes a single consistent generation no matter how many
// batches the writer applies meanwhile. In particular tuple contents and
// the rule set always pair: a tuple annotated after this snapshot was
// published is invisible to it, exactly as the rules mined before that
// annotation are the ones evaluating it. All tuple reads answered from a
// snapshot come from its View — never from the live relation — so reads
// take no relation lock. Seq gives downstream caches a cheap staleness key
// (the root facade memoizes token-rendered rules per Seq).
type Snapshot struct {
	incremental.Snapshot
	// Seq is the publish sequence number, strictly increasing.
	Seq uint64
	// Compiled evaluates recommendations against Rules.
	Compiled *predict.Compiled
	// Attachments and DistinctAnnotations summarize View's frequency
	// table, folded once at publish so stats polls do no per-call work.
	Attachments         int
	DistinctAnnotations int
}
