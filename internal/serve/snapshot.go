package serve

import (
	"annotadb/internal/incremental"
	"annotadb/internal/predict"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// Snapshot is one published generation of serving state. Everything in it
// is immutable, so a Snapshot may be read by any number of goroutines
// without synchronization, and a reader that holds one observes a single
// consistent generation no matter how many batches the writer applies
// meanwhile. In particular View and Rules are captured under one engine
// lock acquisition, so tuple contents and the rule set always pair: a tuple
// annotated after this snapshot was published is invisible to it, exactly
// as the rules mined before that annotation are the ones evaluating it.
// Seq gives downstream caches a cheap staleness key (the root facade
// memoizes token-rendered rules per Seq).
type Snapshot struct {
	// Seq is the publish sequence number, strictly increasing.
	Seq uint64
	// N is the relation size the rules' denominators refer to.
	N int
	// MinCount is the absolute support threshold at publish time.
	MinCount int
	// RelVersion is the relation's mutation counter at publish time; the
	// live relation's Version minus this value is the snapshot's staleness.
	RelVersion uint64
	// EngineStats are the engine lifetime counters at publish time.
	EngineStats incremental.Stats
	// View is the immutable relation generation the rules were maintained
	// against. All tuple reads answered from this snapshot come from it —
	// never from the live relation — so reads take no relation lock.
	View *relation.View
	// Rules is the immutable valid rule set.
	Rules *rules.View
	// Candidates is the near-miss candidate tier of the same generation,
	// captured under the same engine lock as Rules. The stream hook diffs
	// consecutive snapshots' tiers into churn events; readers may also use
	// it to inspect rules hovering below the thresholds.
	Candidates *rules.View
	// Compiled evaluates recommendations against Rules.
	Compiled *predict.Compiled
	// Attachments and DistinctAnnotations summarize View's frequency
	// table, folded once at publish so stats polls do no per-call work.
	Attachments         int
	DistinctAnnotations int
}
