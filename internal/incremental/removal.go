package incremental

import (
	"time"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

// CaseRemoveAnnotations extends the paper: §6 names "the removal of
// annotations and data records from the dataset" as future work and
// predicts that "the implementation of a system for handling such removals
// would likely be quite similar to the current updating and discovery of
// rules". This is that system for annotations — Case 3 run in reverse.
const CaseRemoveAnnotations Case = 200

// preView captures a touched tuple's state before removals applied.
type preView struct {
	items  itemset.Itemset // full pre-removal mining view
	annots itemset.Itemset // pre-removal annotations, relevance-filtered
}

// RemoveAnnotations detaches a batch of annotations from existing tuples
// and maintains the rule set exactly. The relation size is unchanged, so
// support denominators are stable; only patterns containing a removed
// annotation can lose count. Key asymmetries versus Case 3:
//
//   - support and pattern counts only decrease, so no new rule can need
//     discovery from below the tracked horizon (validity requires pattern
//     count ≥ minCount, which only tracked rules can have — invariant I3);
//   - confidence can rise: removing an annotation that sits in a rule's
//     L.H.S. shrinks the "de-numerator", so candidate rules can be promoted
//     to valid, which reclassification handles from exact counts.
func (e *Engine) RemoveAnnotations(batch []relation.AnnotationUpdate) (*Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()
	rep := &Report{Case: CaseRemoveAnnotations}
	e.stats.Removals++

	// Snapshot the pre-removal annotation view of every touched tuple:
	// the patterns being broken are subsets of the OLD annotation sets.
	pre := make(map[int]preView)
	for _, u := range batch {
		if _, ok := pre[u.Index]; ok {
			continue
		}
		tu, err := e.rel.Tuple(u.Index)
		if err != nil {
			continue // ApplyRemovals will surface the range error
		}
		items := e.projectTuple(tu)
		pre[u.Index] = preView{
			items:  items,
			annots: items.AnnotationPart().Filter(func(a itemset.Item) bool { return e.relevant[a] }),
		}
	}

	applied, skipped, err := e.rel.ApplyRemovals(batch)
	if err != nil {
		return nil, err
	}
	rep.Applied = len(applied)
	rep.Skipped = len(skipped)
	if len(applied) == 0 {
		rep.Duration = time.Since(start)
		return rep, nil
	}

	perTuple := make(map[int]itemset.Itemset)
	for _, u := range applied {
		if e.cfg.ExcludeDerived && u.Annotation.IsDerived() {
			continue
		}
		perTuple[u.Index] = perTuple[u.Index].Add(u.Annotation)
	}
	if len(perTuple) == 0 {
		rep.Duration = time.Since(start)
		return rep, nil
	}

	// Phase A: decrement annotation-pattern counts. Enumerate, per touched
	// tuple, the pre-removal subsets that contained at least one removed
	// annotation (the exact mirror of Case 3's gained patterns). The
	// relevance filter is the pre-removal one, matching what the caches
	// could contain.
	lost, overBudget := e.collectLostAnnotPatterns(pre, perTuple)
	if overBudget {
		if err := e.bootstrap(); err != nil {
			return nil, err
		}
		e.stats.Remines++
		rep.Remined = true
		rep.Duration = time.Since(start)
		return rep, nil
	}
	e.applyAnnotPatternLosses(lost)

	// Frequencies fell; relevance can flip downward, which purges cold
	// entries that the narrowed enumeration would no longer maintain.
	e.refreshRelevance()

	// Phase B: Figure 12 in reverse — decrement tracked rule counts from
	// the pre-removal views.
	e.updateTrackedRulesWithRemovals(pre, perTuple)
	e.syncAnnotationSingletons()

	// Phase C: no discovery — counts only fell — but classification moves:
	// candidates whose confidence rose are promoted, valid rules that lost
	// support are demoted.
	e.reclassify(rep)
	e.demoteSubSlackCatalogEntries()

	rep.Duration = time.Since(start)
	return rep, nil
}

// collectLostAnnotPatterns enumerates, per touched tuple, the pre-removal
// annotation subsets that contained at least one removed annotation.
func (e *Engine) collectLostAnnotPatterns(pre map[int]preView, perTuple map[int]itemset.Itemset) (map[itemset.Key]int, bool) {
	lost := make(map[itemset.Key]int)
	budget := e.opts.subsetBudget()
	maxLen := e.cfg.MaxLen
	spent := 0
	for idx, removed := range perTuple {
		snap, ok := pre[idx]
		if !ok {
			continue
		}
		annots := snap.annots
		removed = removed.Filter(func(a itemset.Item) bool { return e.relevant[a] })
		if removed.Empty() {
			continue
		}
		limit := annots.Len()
		if maxLen > 0 && maxLen < limit {
			limit = maxLen
		}
		var worst int64
		for k := 1; k <= limit; k++ {
			worst += itemset.Binomial(annots.Len(), k)
			if worst > int64(budget-spent) {
				return nil, true
			}
		}
		for k := 1; k <= limit; k++ {
			annots.Subsets(k, func(sub itemset.Itemset) bool {
				spent++
				if sub.Intersects(removed) {
					lost[sub.Key()]++
				}
				return true
			})
		}
	}
	return lost, false
}

// applyAnnotPatternLosses folds losses into the annotation catalog and cold
// cache. Unknown patterns need no action: their counts were never tracked
// and only matter if they later rise, at which point they are exact-counted
// fresh.
func (e *Engine) applyAnnotPatternLosses(lost map[itemset.Key]int) {
	for key, loss := range lost {
		if _, ok := e.annotCat.CountKey(key); ok {
			p, err := key.Decode()
			if err != nil {
				panic("incremental: corrupt lost-pattern key: " + err.Error())
			}
			e.annotCat.AddDelta(p, -loss)
			continue
		}
		if c, ok := e.coldAnnot[key]; ok {
			e.coldAnnot[key] = c - loss
		}
	}
}

// updateTrackedRulesWithRemovals decrements pattern and LHS counts of every
// maintained rule for each touched tuple whose pre-removal view contained
// the pattern/LHS that the removal broke.
func (e *Engine) updateTrackedRulesWithRemovals(pre map[int]preView, perTuple map[int]itemset.Itemset) {
	views := make([]annotDeltaView, 0, len(perTuple))
	for idx, removed := range perTuple {
		snap, ok := pre[idx]
		if !ok {
			continue
		}
		views = append(views, annotDeltaView{items: snap.items, changed: removed})
	}
	e.adjustTrackedRules(views, -1)
}

// demoteSubSlackCatalogEntries is pruneCatalogs for the removal path: the
// slack threshold is unchanged but counts fell, so entries can drop out of
// the pool.
func (e *Engine) demoteSubSlackCatalogEntries() {
	e.pruneCatalogs()
}
