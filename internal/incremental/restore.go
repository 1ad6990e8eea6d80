package incremental

import (
	"annotadb/internal/mining"
	"annotadb/internal/relation"
)

// State is the portion of an engine a checkpoint persists: the relation and
// the lifetime counters. Everything else — the rule tiers, the pattern
// catalogs, the cold caches, the relevance set and the thresholds — is
// derived from the relation and the mining configuration, so a (relation,
// Config, Stats) triple restores an engine whose rules are the captured
// engine's.
type State struct {
	// Relation is the pinned relation generation the counters were captured
	// with.
	Relation *relation.View
	// Stats carries the lifetime counters across restarts.
	Stats Stats
}

// State captures the persistable engine state under one lock acquisition.
// The relation is pinned as a copy-on-write view rather than cloned, so the
// caller may serialize it at leisure while the engine keeps applying
// updates, without holding any engine or relation lock.
func (e *Engine) State() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	return State{Relation: e.rel.View(), Stats: e.stats}
}

// Restore builds an engine over rel with a full mine, as New does, and
// carries over stats, the lifetime counters of the engine that rel was
// captured from. The mine re-derives that engine's state rather than
// bootstrapping a new one, so it is not counted in Stats.Bootstraps.
//
// A re-mine reproduces everything invariants I1–I3 bind: the valid tier,
// every candidate with pattern count ≥ minCount, and the catalog entries at
// or above minCount. The surplus down to the slack threshold depends on the
// captured engine's history and is reset to a full mine's. After replaying
// any updates that followed the capture through the restored engine, the
// exactness contract holds again — the recovery-equivalence property test
// in the wal package exercises exactly this. cfg must match the original;
// the engine takes ownership of rel.
func Restore(rel *relation.Relation, cfg mining.Config, opts Options, stats Stats) (*Engine, error) {
	e, err := New(rel, cfg, opts)
	if err != nil {
		return nil, err
	}
	e.stats = stats
	return e, nil
}
