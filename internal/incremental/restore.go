package incremental

import (
	"fmt"

	"annotadb/internal/apriori"
	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// State is the persistable portion of an engine: exactly the structures the
// exactness contract (invariants I1–I3) binds. The cold caches, the relevance
// set, and the absolute thresholds are all derivable — the first two are
// rebuilt empty or recomputed, the thresholds follow from the relation and
// the mining configuration — so a (relation, Config, State) triple restores
// an engine observationally identical to the one that produced it.
type State struct {
	// Relation is the pinned relation generation the rest of the state was
	// captured against. State fills it for checkpoint writers; Restore
	// ignores it (the live relation is passed to Restore separately).
	Relation *relation.View
	// Valid is the valid rule set; Candidates the near-miss slack pool.
	Valid      *rules.Set
	Candidates *rules.Set
	// DataPatterns and AnnotPatterns are the frequent-pattern catalogs
	// (the confidence "de-numerators" and the annotation patterns).
	DataPatterns  *apriori.Catalog
	AnnotPatterns *apriori.Catalog
	// Stats carries the lifetime counters across restarts.
	Stats Stats
}

// State captures the persistable engine state under one lock acquisition.
// Everything returned is immutable or deeply copied — the relation is
// pinned as a copy-on-write view rather than cloned — so the caller may
// serialize it at leisure while the engine keeps applying updates, without
// holding any engine or relation lock.
func (e *Engine) State() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	return State{
		Relation:      e.rel.View(),
		Valid:         e.valid.Clone(),
		Candidates:    e.cands.Clone(),
		DataPatterns:  e.dataCat.Clone(),
		AnnotPatterns: e.annotCat.Clone(),
		Stats:         e.stats,
	}
}

// Restore rebuilds an engine from a previously captured State without the
// bootstrap mining pass — the point of checkpoint persistence: restart cost
// becomes proportional to the un-checkpointed update tail, not the relation.
//
// rel must be the relation the state was captured against (after replaying
// any updates that followed the capture through the restored engine, the
// exactness contract holds again — the recovery-equivalence property test
// in the wal package exercises exactly this). cfg and opts must match the
// originals: thresholds are recomputed from cfg against rel, so restoring
// under a different configuration silently breaks invariants I1–I3.
// The engine takes ownership of rel and of the State's structures; the
// caller must not reuse either.
func Restore(rel *relation.Relation, cfg mining.Config, opts Options, st State) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if st.Valid == nil || st.Candidates == nil || st.DataPatterns == nil || st.AnnotPatterns == nil {
		return nil, fmt.Errorf("incremental: restore: incomplete state (nil rule set or catalog)")
	}
	e := &Engine{rel: rel, cfg: cfg, opts: opts}
	e.valid = st.Valid
	e.cands = st.Candidates
	e.dataCat = st.DataPatterns
	e.annotCat = st.AnnotPatterns
	e.coldRules = rules.NewSet()
	e.coldAnnot = make(map[itemset.Key]int)
	e.coldData = make(map[itemset.Key]int)
	e.stats = st.Stats
	e.refreshThresholds()
	e.refreshRelevance()
	return e, nil
}
