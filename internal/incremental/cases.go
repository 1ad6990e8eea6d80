package incremental

import (
	"fmt"
	"slices"
	"time"

	"annotadb/internal/apriori"
	"annotadb/internal/itemset"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// AddAnnotatedTuples implements Case 1: appending tuples that may carry
// annotations. Existing rules are updated by counting only the new tuples;
// the candidate store is re-evaluated ("reviewing candidate association
// rules which previously did not meet the minimum support and confidence
// requirements"); and genuinely new rules are discovered by delta mining —
// a pattern that was below the slack pool can only reach the support
// threshold if it is dense inside the batch itself, so mining the batch at
// the threshold gap finds every possible newcomer.
func (e *Engine) AddAnnotatedTuples(tuples []relation.Tuple) (*Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()
	rep := &Report{Case: CaseAnnotatedTuples, Applied: len(tuples)}
	e.stats.Case1++
	e.addTuples(tuples, rep, true)
	rep.Duration = time.Since(start)
	return rep, nil
}

// AddUnannotatedTuples implements Case 2: appending tuples with no
// annotations. Per the paper, data-to-annotation rules can only lose support
// and confidence, annotation-to-annotation rules only support, and "there
// are never going to be new rules to discover". The data-pattern catalog can
// still gain entries (the new tuples carry data values), so a data-only
// delta discovery keeps invariant I1.
func (e *Engine) AddUnannotatedTuples(tuples []relation.Tuple) (*Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()
	rep := &Report{Case: CaseUnannotatedTuples, Applied: len(tuples)}
	e.stats.Case2++
	for i, tu := range tuples {
		if tu.Annotated() {
			return nil, fmt.Errorf("incremental: tuple %d of un-annotated batch carries %d annotations; use AddAnnotatedTuples", i, tu.Annots.Len())
		}
	}
	e.addTuples(tuples, rep, false)
	rep.Duration = time.Since(start)
	return rep, nil
}

// addTuples appends a Case 1 or Case 2 batch and maintains the rules from
// the batch's own bitmaps: the appended tuples at positions 0..k−1 of
// e.batch's after side. They did not exist before the batch, so every count
// over that side is a gain; the before side is not read. Without annotations
// (Case 2) delta mining looks for data-pattern newcomers only; no rule can be
// born.
func (e *Engine) addTuples(tuples []relation.Tuple, rep *Report, withAnnotations bool) {
	if len(tuples) == 0 {
		return
	}
	oldSlack := e.slackCount
	e.rel.Append(tuples...)
	e.refreshThresholds()
	e.refreshRelevance()

	e.batch.Reset(len(tuples))
	for i, tu := range tuples {
		e.batch.Add(i, tu.Data, nil, tu.Annots)
	}
	promoted := e.updateCatalogsWithDelta()
	e.updateTrackedRulesWithDelta()
	e.syncAnnotationSingletons()
	e.discoverAnnotRulesFromFreshPatterns(promoted, rep)
	e.discoverFromDelta(oldSlack, rep, withAnnotations)
	e.reclassify(rep)
	e.pruneCatalogs()
}

// updateCatalogsWithDelta adds each cataloged and cold-cached pattern's
// count over the appended tuples to its stored count. Only the delta is
// counted, never the historical database. Cold patterns whose maintained
// counts reach the (possibly raised) slack threshold are promoted into the
// catalogs; promoted annotation patterns are returned so their rules can be
// derived.
func (e *Engine) updateCatalogsWithDelta() []itemset.Itemset {
	after := e.batch.After()
	for _, cat := range []*apriori.Catalog{e.dataCat, e.annotCat} {
		// AddDelta rewrites an entry the walk has reached; it adds none.
		cat.Each(func(p itemset.Itemset, _ int) bool {
			if g := after.CountPattern(p); g > 0 {
				cat.AddDelta(p, g)
			}
			return true
		})
	}
	var promotedAnnot []itemset.Itemset
	for _, tier := range []struct {
		cold map[itemset.Key]int
		cat  *apriori.Catalog
	}{{e.coldData, e.dataCat}, {e.coldAnnot, e.annotCat}} {
		for key, count := range tier.cold {
			p, err := key.Decode()
			if err != nil {
				panic(fmt.Sprintf("incremental: corrupt cold-cache key: %v", err))
			}
			count += after.CountPattern(p)
			if count < e.slackCount {
				tier.cold[key] = count
				continue
			}
			tier.cat.Add(p, count)
			delete(tier.cold, key)
			if tier.cat == e.annotCat {
				promotedAnnot = append(promotedAnnot, p)
			}
		}
	}
	return promotedAnnot
}

// updateTrackedRulesWithDelta refreshes pattern counts, LHS counts, and the
// N denominator of every maintained rule — valid, candidate, and cold — by
// counting only the appended tuples.
func (e *Engine) updateTrackedRulesWithDelta() {
	after := e.batch.After()
	for _, set := range []*rules.Set{e.valid, e.cands, e.coldRules} {
		set.Rewrite(func(r *rules.Rule) bool {
			r.LHSCount += after.CountPattern(r.LHS)
			r.PatternCount += after.CountPattern(e.patternOf(r))
			r.N = e.n
			return true
		})
	}
}

// discoverFromDelta finds rules and catalog entries that were below the
// tracked horizon before the batch but may now qualify. Soundness: an
// untracked pattern had count ≤ oldSlack−1; to reach the current minCount it
// must occur at least tDelta = minCount−oldSlack+1 times inside the batch.
// When tDelta exceeds the batch size, no newcomer is possible and the whole
// step is skipped — the common case for small batches, and the reason
// incremental maintenance wins in Figure 16.
func (e *Engine) discoverFromDelta(oldSlack int, rep *Report, withAnnotations bool) {
	tDelta := e.minCount - oldSlack + 1
	if tDelta < 1 {
		tDelta = 1
	}
	if tDelta > e.batch.Len() {
		return
	}
	acfg := apriori.Config{
		MinCount:       tDelta,
		MaxAnnotations: 1,
		MaxLen:         e.cfg.MaxLen,
	}
	if !withAnnotations {
		acfg.MaxAnnotations = 0
	}
	// The batch's own bitmaps, with derived labels left out under
	// ExcludeDerived as mining.Mine leaves them out of a full mine.
	visible := func(it itemset.Item) bool { return !e.cfg.ExcludeDerived || !it.IsDerived() }
	after := e.batch.After()
	mixedDelta := apriori.Mine(apriori.Restrict(after, visible), acfg)

	var annotDelta *apriori.Catalog
	if withAnnotations {
		acfg.MaxAnnotations = -1
		annotDelta = apriori.Mine(apriori.Restrict(after, func(it itemset.Item) bool {
			return it.IsAnnotation() && visible(it)
		}), acfg)
	}

	// Gather patterns whose database-wide counts are unknown.
	needIdx := make(map[itemset.Key]int)
	var needList []itemset.Itemset
	need := func(p itemset.Itemset) {
		key := p.Key()
		if _, ok := needIdx[key]; !ok {
			needIdx[key] = len(needList)
			needList = append(needList, p)
		}
	}

	type pendingRule struct {
		lhs itemset.Itemset
		rhs itemset.Item
	}
	var pendingMixed []pendingRule
	var freshAnnot []itemset.Itemset

	mixedDelta.Each(func(p itemset.Itemset, _ int) bool {
		if p.PureData() {
			// Cold-cached patterns already have exact, maintained counts
			// and were promotion-checked in updateCatalogsWithDelta.
			if _, cold := e.coldData[p.Key()]; !cold && !e.dataCat.Has(p) {
				need(p)
			}
			return true
		}
		if p.Len() < 2 {
			return true // a lone annotation; singletons sync from the frequency table
		}
		x, annots := p.Split()
		if x.Empty() {
			return true
		}
		r := rules.Rule{LHS: x, RHS: annots[0]}
		if e.tracked(&r) {
			return true // already updated exactly
		}
		need(p.Clone())
		if !e.dataCat.Has(x) {
			need(x.Clone())
		}
		pendingMixed = append(pendingMixed, pendingRule{lhs: x.Clone(), rhs: annots[0]})
		return true
	})

	if annotDelta != nil {
		annotDelta.Each(func(p itemset.Itemset, _ int) bool {
			if p.Empty() {
				return true
			}
			if _, cold := e.coldAnnot[p.Key()]; !cold && !e.annotCat.Has(p) {
				need(p.Clone())
				freshAnnot = append(freshAnnot, p.Clone())
			}
			if p.Len() >= 2 {
				for i := 0; i < p.Len(); i++ {
					lhs := p.WithoutIndex(i)
					if _, cold := e.coldAnnot[lhs.Key()]; !cold && !e.annotCat.Has(lhs) {
						need(lhs.Clone())
					}
				}
			}
			return true
		})
	}

	if len(needList) == 0 {
		return
	}
	// The patterns hold no derived label when ExcludeDerived is set, so the
	// relation's counts are the mining view's.
	counts := make([]int, len(needList))
	for i, p := range needList {
		counts[i] = e.rel.CountPattern(p)
	}
	countOf := func(p itemset.Itemset) int {
		if i, ok := needIdx[p.Key()]; ok {
			return counts[i]
		}
		if n, ok := e.dataCat.Count(p); ok {
			return n
		}
		if n, ok := e.annotCat.Count(p); ok {
			return n
		}
		if n, ok := e.coldData[p.Key()]; ok {
			return n
		}
		if n, ok := e.coldAnnot[p.Key()]; ok {
			return n
		}
		return e.rel.CountPattern(p) // defensive; should not be reached
	}

	// Catalog pure-data newcomers; keep the rest warm in the cold cache.
	for i, p := range needList {
		if !p.PureData() {
			continue
		}
		if counts[i] >= e.slackCount {
			e.dataCat.Add(p, counts[i])
		} else {
			e.coldData[p.Key()] = counts[i]
		}
	}
	// Catalog pure-annotation newcomers and derive their rules.
	for _, p := range freshAnnot {
		c := countOf(p)
		if c < e.slackCount {
			if e.allRelevant(p) {
				e.coldAnnot[p.Key()] = c
			}
			continue
		}
		e.annotCat.Add(p, c)
		if p.Len() < 2 {
			continue
		}
		for i := 0; i < p.Len(); i++ {
			r := rules.Rule{
				LHS:          p.WithoutIndex(i).Clone(),
				RHS:          p[i],
				PatternCount: c,
				N:            e.n,
			}
			if e.tracked(&r) {
				continue
			}
			r.LHSCount = countOf(r.LHS)
			if e.fileRule(r) {
				rep.Discovered++
				e.stats.Discoveries++
			}
		}
	}
	// File mixed (data-to-annotation) newcomers.
	for _, pr := range pendingMixed {
		pattern := pr.lhs.Add(pr.rhs)
		r := rules.Rule{
			LHS:          pr.lhs,
			RHS:          pr.rhs,
			PatternCount: countOf(pattern),
			LHSCount:     countOf(pr.lhs),
			N:            e.n,
		}
		if e.fileRule(r) {
			rep.Discovered++
			e.stats.Discoveries++
		}
	}
}

// pruneCatalogs demotes catalog entries that fell below the slack pool
// after the denominator grew. Invariants I1/I2 bind at minCount ≥
// slackCount, so demoting at slackCount preserves them; the entries move to
// the cold cache rather than vanishing, keeping their exact counts warm.
// (Rules derived from demoted annotation patterns track their own counts
// and are unaffected.)
func (e *Engine) pruneCatalogs() {
	demote := func(cat *apriori.Catalog, cold func(itemset.Itemset, int)) {
		var evict []apriori.Entry
		cat.Each(func(set itemset.Itemset, count int) bool {
			if count < e.slackCount {
				evict = append(evict, apriori.Entry{Set: set, Count: count})
			}
			return true
		})
		for _, en := range evict {
			cat.Remove(en.Set)
			cold(en.Set, en.Count)
		}
	}
	demote(e.dataCat, func(s itemset.Itemset, c int) { e.coldData[s.Key()] = c })
	demote(e.annotCat, func(s itemset.Itemset, c int) {
		if e.allRelevant(s) {
			e.coldAnnot[s.Key()] = c
		}
	})
}

// AddAnnotations implements Case 3 (Figures 12 and 13): attaching new
// annotations to existing tuples. The relation size is unchanged, so
// support denominators are stable; only patterns containing an added
// annotation can change count.
//
// Figure 12 (update): every tracked rule's pattern and LHS counts move by
// their change over the updated tuples alone. Figure 13 (discover): new
// data-to-annotation rules arise from frequent data patterns inside the
// newly annotated tuples, counted exactly over the annotation's inverted
// index; new annotation-to-annotation rules arise from annotation patterns
// completed by the batch, likewise counted over the index. "In all cases,
// there is no need for full database processing or re-discovering the rules
// from scratch." The pass is shared with RemoveAnnotations; see signedPass.
func (e *Engine) AddAnnotations(batch []relation.AnnotationUpdate) (*Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Case3++
	return e.annotationBatch(batch, CaseNewAnnotations)
}

// annotationBatch runs one attach (Case 3) or detach (removal) batch through
// signedPass and times it.
func (e *Engine) annotationBatch(batch []relation.AnnotationUpdate, c Case) (*Report, error) {
	start := time.Now()
	rep := &Report{Case: c}
	if err := e.signedPass(batch, rep); err != nil {
		return nil, err
	}
	rep.Duration = time.Since(start)
	return rep, nil
}

// signedPass applies an annotation batch — attaches, or detaches for
// CaseRemoveAnnotations — and maintains the rules from the tuples the write
// reported, each with its annotation set before and after the batch. Indexed
// into e.batch with the data values they keep, which both sides share, those
// tuples give every count's change as e.batch.Change(p), after − before:
// positive for an attach, negative for a detach, and zero for any pattern
// without a changed annotation.
func (e *Engine) signedPass(batch []relation.AnnotationUpdate, rep *Report) error {
	remove := rep.Case == CaseRemoveAnnotations
	if err := e.rel.ApplyDelta(batch, remove, &e.delta); err != nil {
		return err
	}
	rep.Applied, rep.Skipped = len(e.delta.Applied), len(e.delta.Skipped)
	if rep.Applied == 0 {
		return nil
	}
	if !remove {
		// Frequencies grew; annotations may have crossed into the slack
		// pool, which both widens the enumeration universe and requires
		// purging any cold counts that were excluded from maintenance while
		// irrelevant.
		e.refreshRelevance()
	}
	if !e.indexDelta() {
		return nil // only derived labels the mining view leaves out changed
	}

	// Phase A: the annotation-pattern catalog and cold cache. A removal
	// enumerates under the pre-removal relevance, matching what the caches
	// could contain.
	changes, ok := e.annotPatternChanges(remove)
	if !ok {
		// A tuple's annotation set is too large to enumerate; fall back to
		// a full re-mine (counted, and visible in benchmarks).
		if err := e.bootstrap(); err != nil {
			return err
		}
		e.stats.Remines++
		rep.Remined = true
		return nil
	}
	var fresh []itemset.Itemset
	if remove {
		e.applyAnnotPatternLosses(changes)
		// Frequencies fell; relevance can flip downward, which purges cold
		// entries that the narrowed enumeration would no longer maintain.
		e.refreshRelevance()
	} else {
		fresh = e.applyAnnotPatternGains(changes)
	}

	// Phase B: Figure 12, signed.
	e.updateTrackedRules()
	e.syncChangedSingletons()

	// Phase C: Figure 13 — discover rules born in this batch. A detach only
	// lowers counts, so nothing untracked can reach the support threshold
	// (invariant I3); its confidence moves are reclassification's.
	if !remove {
		e.discoverDataRulesFromAnnotations(rep)
		e.discoverAnnotRulesFromFreshPatterns(fresh, rep)
	}
	e.reclassify(rep)
	if remove {
		// The slack threshold is unchanged but counts fell, so catalog
		// entries can drop out of the pool.
		e.pruneCatalogs()
	}
	return nil
}

// indexDelta indexes the reported tuples into e.batch, each tuple's data
// values once, and marks, in e.changed and e.changedList, the annotations
// the batch changed that the mining view can see. It reports whether there
// was any.
func (e *Engine) indexDelta() bool {
	ts := e.delta.Tuples
	e.batch.Reset(len(ts))
	for i, t := range ts {
		e.batch.Add(i, t.Data, t.Before, t.After)
	}
	for _, a := range e.changedList {
		e.changed.set(a, false)
	}
	e.changedList = e.changedList[:0]
	for _, u := range e.delta.Applied {
		if a := u.Annotation; !e.changed.has(a) && (!e.cfg.ExcludeDerived || !a.IsDerived()) {
			e.changed.set(a, true)
			e.changedList = append(e.changedList, a)
		}
	}
	return len(e.changedList) > 0
}

// annotPatternChanges returns how much the batch moved each annotation
// pattern it changed, as a magnitude: a gain for an attach, a loss for a
// detach. Only relevant annotations can appear in a pattern worth tracking —
// a pattern's count is at most its rarest member's frequency — and a pattern
// can only move on a tuple where one of its members changed. So the changed
// side (after an attach, before a detach) of every tuple with a relevant
// change is indexed over its relevant annotations and mined with Apriori at
// MinCount 1 and the configured MaxLen; each mined pattern's change is then
// counted over the batch index.
//
// The mining is budgeted: each such tuple is charged the worst case of its
// subsets, and exceeding SubsetBudget reports false before anything is
// mined.
func (e *Engine) annotPatternChanges(remove bool) (map[itemset.Key]int, bool) {
	budget := int64(e.opts.subsetBudget())
	var spent int64
	e.hits = e.hits[:0]
	for _, t := range e.delta.Tuples {
		side, other := t.After, t.Before
		if remove {
			side, other = t.Before, t.After
		}
		n, hit := 0, false
		for _, a := range side {
			if e.relevant.has(a) {
				n++
				hit = hit || !other.Contains(a)
			}
		}
		if !hit {
			continue
		}
		limit := n
		if e.cfg.MaxLen > 0 && e.cfg.MaxLen < limit {
			limit = e.cfg.MaxLen
		}
		for k := 1; k <= limit; k++ {
			if spent += itemset.Binomial(n, k); spent > budget {
				return nil, false
			}
		}
		e.hits = append(e.hits, side)
	}
	e.mined.Reset(len(e.hits))
	for j, side := range e.hits {
		e.scratch = e.scratch[:0]
		for _, a := range side {
			if e.relevant.has(a) {
				e.scratch = append(e.scratch, a)
			}
		}
		e.mined.Add(j, nil, nil, e.scratch)
	}
	if e.changes == nil {
		e.changes = make(map[itemset.Key]int)
	}
	clear(e.changes)
	sign := 1
	if remove {
		sign = -1
	}
	cat := apriori.Mine(e.mined.After(), apriori.Config{MinCount: 1, MaxAnnotations: -1, MaxLen: e.cfg.MaxLen})
	cat.Each(func(p itemset.Itemset, _ int) bool {
		if c := sign * e.batch.Change(p); c != 0 {
			e.changes[p.Key()] = c
		}
		return true
	})
	return e.changes, true
}

// applyAnnotPatternGains folds the per-pattern gains into the annotation
// catalog. Cataloged patterns are adjusted in place; cold-cached patterns
// are adjusted in the cache and promoted when they reach the slack pool;
// genuinely unknown patterns are counted exactly from the inverted-index
// bitmaps of their members (the paper's "check all data tuples in the
// database having this annotation") exactly once, then cached. The freshly
// cataloged patterns are returned for rule discovery.
func (e *Engine) applyAnnotPatternGains(gained map[itemset.Key]int) []itemset.Itemset {
	var fresh []itemset.Itemset
	for key, gain := range gained {
		if _, ok := e.annotCat.CountKey(key); ok {
			p, err := key.Decode()
			if err != nil {
				panic(fmt.Sprintf("incremental: corrupt gained-pattern key: %v", err))
			}
			e.annotCat.AddDelta(p, gain)
			continue
		}
		if c, ok := e.coldAnnot[key]; ok {
			c += gain
			if c < e.slackCount {
				e.coldAnnot[key] = c
				continue
			}
			p, err := key.Decode()
			if err != nil {
				panic(fmt.Sprintf("incremental: corrupt cold-cache key: %v", err))
			}
			delete(e.coldAnnot, key)
			e.annotCat.Add(p, c)
			fresh = append(fresh, p)
			continue
		}
		p, err := key.Decode()
		if err != nil {
			panic(fmt.Sprintf("incremental: corrupt gained-pattern key: %v", err))
		}
		count := e.rel.CountPattern(p)
		if count >= e.slackCount {
			e.annotCat.Add(p, count)
			fresh = append(fresh, p)
		} else {
			e.coldAnnot[key] = count
		}
	}
	return fresh
}

// updateTrackedRules is Figure 12, signed: every maintained rule — valid,
// candidate and cold — that holds an annotation the batch changed moves by
// the batch's change to its counts. The pattern count always can; the LHS
// count only for an annotation-to-annotation rule, since annotation writes
// leave a pure-data LHS alone. An attach raises counts, and a raised LHS
// count is what may pull confidence below threshold; a detach lowers them,
// and a lowered LHS count is what may lift a candidate to valid.
func (e *Engine) updateTrackedRules() {
	for _, set := range []*rules.Set{e.valid, e.cands, e.coldRules} {
		set.Rewrite(func(r *rules.Rule) bool {
			if !e.holdsChanged(r) {
				return false
			}
			dp := e.batch.Change(e.patternOf(r))
			dl := e.batch.Change(r.LHS) // zero for a pure-data LHS
			r.PatternCount += dp
			r.LHSCount += dl
			return dp != 0 || dl != 0
		})
	}
}

// holdsChanged reports whether r holds an annotation the batch changed: one
// flag read per annotation, no allocation.
func (e *Engine) holdsChanged(r *rules.Rule) bool {
	if e.changed.has(r.RHS) {
		return true
	}
	for i := len(r.LHS) - 1; i >= 0 && r.LHS[i].IsAnnotation(); i-- {
		if e.changed.has(r.LHS[i]) {
			return true
		}
	}
	return false
}

// discoverDataRulesFromAnnotations is Figure 13 Step 1: an annotation a the
// batch attached to a tuple whose data values contain an already-frequent
// data pattern X may now form a rule X ⇒ a. The rule's pattern count is then
// counted over the relation's bitmaps; its LHS count ("de-numerator") is
// already known from the data catalog.
func (e *Engine) discoverDataRulesFromAnnotations(rep *Report) {
	e.eachRaisedDataRule(func(r *rules.Rule) {
		if e.tracked(r) {
			return
		}
		r.PatternCount = e.rel.CountPattern(e.patternOf(r))
		if e.fileRule(*r) {
			rep.Discovered++
			e.stats.Discoveries++
		}
	})
}

// eachRaisedDataRule calls fn with the rule X ⇒ a, its LHS count and N
// filled in, for every data-catalog entry X and frequent annotation a ("the
// annotation must be a frequent annotation by itself") whose count(X ∪ {a})
// the attach raised. That is Figure 13 over the increment only, Eclat's
// tid-list intersection: the positions where the batch attached a are
// computed once, and each X costs one AND-popcount of its shared data
// bitmaps with them, which is count_after(X ∪ {a}) − count_before(X ∪ {a}).
// fn must not keep r.
func (e *Engine) eachRaisedDataRule(fn func(r *rules.Rule)) {
	e.frequent = e.frequent[:0]
	for _, a := range e.changedList {
		if e.relevant.has(a) {
			e.frequent = append(e.frequent, a)
		}
	}
	if len(e.frequent) == 0 {
		return
	}
	n := len(e.frequent)
	// Growing within capacity keeps the old bitmaps, whose memory Changed
	// reuses.
	e.moved = slices.Grow(e.moved[:0], n)[:n]
	e.gains = slices.Grow(e.gains[:0], n)[:n]
	for k, a := range e.frequent {
		e.moved[k] = e.batch.Changed(a, e.moved[k])
	}
	var r rules.Rule
	e.dataCat.Each(func(x itemset.Itemset, lhsCount int) bool {
		e.batch.CountWith(x, e.moved, e.gains)
		for k, g := range e.gains {
			if g != 0 {
				r = rules.Rule{LHS: x, RHS: e.frequent[k], LHSCount: lhsCount, N: e.n}
				fn(&r)
			}
		}
		return true
	})
}

// discoverAnnotRulesFromFreshPatterns is Figure 13 Steps 2 and 3: every
// annotation pattern that first reached the tracked horizon in this batch
// spawns candidate rules with each member as the R.H.S. LHS counts come
// from the catalog, which is guaranteed to contain them (count(LHS) ≥
// count(P) ≥ slack, and any LHS that gained was exact-counted in Phase A).
func (e *Engine) discoverAnnotRulesFromFreshPatterns(fresh []itemset.Itemset, rep *Report) {
	for _, p := range fresh {
		if p.Len() < 2 {
			continue
		}
		count, ok := e.annotCat.Count(p)
		if !ok {
			continue
		}
		for i := 0; i < p.Len(); i++ {
			r := rules.Rule{
				LHS:          p.WithoutIndex(i),
				RHS:          p[i],
				PatternCount: count,
				N:            e.n,
			}
			if e.tracked(&r) {
				continue
			}
			lhsCount, ok := e.annotCat.Count(r.LHS)
			if !ok {
				if c, cold := e.coldAnnot[r.LHS.Key()]; cold {
					lhsCount = c
				} else {
					// count(LHS) ≥ count(P) ≥ slackCount yet unknown:
					// count it exactly rather than trusting the invariant.
					lhsCount = e.rel.CountPattern(r.LHS)
				}
			}
			r.LHSCount = lhsCount
			if e.fileRule(r) {
				rep.Discovered++
				e.stats.Discoveries++
			}
		}
	}
}
