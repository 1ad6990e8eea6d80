package incremental

import "annotadb/internal/relation"

// CaseRemoveAnnotations extends the paper: §6 names "the removal of
// annotations and data records from the dataset" as future work and
// predicts that "the implementation of a system for handling such removals
// would likely be quite similar to the current updating and discovery of
// rules". This is that system for annotations — Case 3 run in reverse.
const CaseRemoveAnnotations Case = 200

// RemoveAnnotations detaches a batch of annotations from existing tuples
// and maintains the rule set exactly. The relation size is unchanged, so
// support denominators are stable; only patterns containing a removed
// annotation can lose count. It is Case 3's signed pass with the sign
// flipped: every change is after − before over the touched tuples, now
// negative, and the patterns that lost count are mined from the tuples'
// pre-removal annotation sets. Key asymmetries versus Case 3:
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
	e.stats.Removals++
	return e.annotationBatch(batch, CaseRemoveAnnotations)
}

// applyAnnotPatternLosses folds losses into the annotation catalog and cold
// cache. Unknown patterns need no action: their counts were never tracked
// and only matter if they later rise, at which point they are exact-counted
// fresh.
func (e *Engine) applyAnnotPatternLosses(lost []patternChange) {
	for _, l := range lost {
		if _, ok := e.annotCat.CountKey(l.key); ok {
			e.annotCat.AddDelta(l.set, -l.n)
			continue
		}
		if c, ok := e.coldAnnot[l.key]; ok {
			e.coldAnnot[l.key] = c - l.n
		}
	}
}
