package incremental

import (
	"fmt"
	"time"

	"annotadb/internal/apriori"
	"annotadb/internal/itemset"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// AddAnnotatedTuples implements Case 1: appending tuples that may carry
// annotations. Existing rules are updated by scanning only the new tuples;
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
	if len(tuples) == 0 {
		rep.Duration = time.Since(start)
		return rep, nil
	}
	oldSlack := e.slackCount
	e.rel.Append(tuples...)
	e.refreshThresholds()
	e.refreshRelevance()

	deltaTxns := make([]itemset.Itemset, len(tuples))
	for i, tu := range tuples {
		deltaTxns[i] = e.projectTuple(tu)
	}

	promoted := e.updateCatalogsWithDelta(deltaTxns)
	e.updateTrackedRulesWithDelta(deltaTxns)
	e.syncAnnotationSingletons()
	e.discoverAnnotRulesFromFreshPatterns(promoted, rep)
	e.discoverFromDelta(deltaTxns, oldSlack, rep, true)
	e.reclassify(rep)
	e.pruneCatalogs()

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
	if len(tuples) == 0 {
		rep.Duration = time.Since(start)
		return rep, nil
	}
	for i, tu := range tuples {
		if tu.Annotated() {
			return nil, fmt.Errorf("incremental: tuple %d of un-annotated batch carries %d annotations; use AddAnnotatedTuples", i, tu.Annots.Len())
		}
	}
	oldSlack := e.slackCount
	e.rel.Append(tuples...)
	e.refreshThresholds()
	e.refreshRelevance()

	deltaTxns := make([]itemset.Itemset, len(tuples))
	for i, tu := range tuples {
		deltaTxns[i] = e.projectTuple(tu)
	}

	promoted := e.updateCatalogsWithDelta(deltaTxns)
	e.updateTrackedRulesWithDelta(deltaTxns)
	e.syncAnnotationSingletons()
	e.discoverAnnotRulesFromFreshPatterns(promoted, rep)
	// Data-pattern newcomers only; no rules can be born without annotations.
	e.discoverFromDelta(deltaTxns, oldSlack, rep, false)
	e.reclassify(rep)
	e.pruneCatalogs()

	rep.Duration = time.Since(start)
	return rep, nil
}

// updateCatalogsWithDelta adds each cataloged and cold-cached pattern's
// occurrences within the new tuples to its stored count. Only the delta is
// scanned, never the historical database. Cold patterns whose maintained
// counts reach the (possibly raised) slack threshold are promoted into the
// catalogs; promoted annotation patterns are returned so their rules can be
// derived.
func (e *Engine) updateCatalogsWithDelta(deltaTxns []itemset.Itemset) []itemset.Itemset {
	for _, cat := range []*apriori.Catalog{e.dataCat, e.annotCat} {
		var patterns []itemset.Itemset
		cat.Each(func(set itemset.Itemset, _ int) bool {
			patterns = append(patterns, set)
			return true
		})
		gains := countPatternsInTxns(patterns, deltaTxns)
		for i, g := range gains {
			if g > 0 {
				cat.AddDelta(patterns[i], g)
			}
		}
	}
	var promotedAnnot []itemset.Itemset
	for _, tier := range []struct {
		cold    map[itemset.Key]int
		isAnnot bool
	}{{e.coldData, false}, {e.coldAnnot, true}} {
		if len(tier.cold) == 0 {
			continue
		}
		keys := make([]itemset.Key, 0, len(tier.cold))
		patterns := make([]itemset.Itemset, 0, len(tier.cold))
		for k := range tier.cold {
			p, err := k.Decode()
			if err != nil {
				panic(fmt.Sprintf("incremental: corrupt cold-cache key: %v", err))
			}
			keys = append(keys, k)
			patterns = append(patterns, p)
		}
		gains := countPatternsInTxns(patterns, deltaTxns)
		for i, g := range gains {
			if g > 0 {
				tier.cold[keys[i]] += g
			}
		}
		for i, k := range keys {
			if count := tier.cold[k]; count >= e.slackCount {
				if tier.isAnnot {
					e.annotCat.Add(patterns[i], count)
					promotedAnnot = append(promotedAnnot, patterns[i])
				} else {
					e.dataCat.Add(patterns[i], count)
				}
				delete(tier.cold, k)
			}
		}
	}
	return promotedAnnot
}

// updateTrackedRulesWithDelta refreshes pattern counts, LHS counts, and the
// N denominator of every maintained rule — valid, candidate, and cold — by
// scanning only the new tuples.
func (e *Engine) updateTrackedRulesWithDelta(deltaTxns []itemset.Itemset) {
	for _, set := range []*rules.Set{e.valid, e.cands, e.coldRules} {
		set.Rewrite(func(r *rules.Rule) bool {
			for _, t := range deltaTxns {
				if t.ContainsAll(r.LHS) {
					r.LHSCount++
					if t.Contains(r.RHS) {
						r.PatternCount++
					}
				}
			}
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
func (e *Engine) discoverFromDelta(deltaTxns []itemset.Itemset, oldSlack int, rep *Report, withAnnotations bool) {
	tDelta := e.minCount - oldSlack + 1
	if tDelta < 1 {
		tDelta = 1
	}
	if tDelta > len(deltaTxns) {
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
	// The batch's own bitmaps: a throwaway relation over the projected delta.
	delta := relation.FromTransactions(deltaTxns).View()
	mixedDelta := apriori.Mine(delta, acfg)

	var annotDelta *apriori.Catalog
	if withAnnotations {
		acfg.MaxAnnotations = -1
		annotDelta = apriori.Mine(apriori.Restrict(delta, itemset.Item.IsAnnotation), acfg)
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
		r := rules.Rule{LHS: x.Clone(), RHS: annots[0]}
		if e.trackedRule(r.ID()) {
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
	// The patterns come from projected transactions, so they hold no derived
	// label when ExcludeDerived is set and the relation's counts are the
	// projection's.
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
			if e.trackedRule(r.ID()) {
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
// Figure 12 (update): every tracked rule's pattern and LHS counts are
// refreshed by checking only the updated tuples. Figure 13 (discover): new
// data-to-annotation rules arise from frequent data patterns inside the
// newly annotated tuples, counted exactly over the annotation's inverted
// index; new annotation-to-annotation rules arise from annotation patterns
// completed by the batch, likewise counted over the index. "In all cases,
// there is no need for full database processing or re-discovering the rules
// from scratch."
func (e *Engine) AddAnnotations(batch []relation.AnnotationUpdate) (*Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()
	rep := &Report{Case: CaseNewAnnotations}
	e.stats.Case3++

	applied, skipped, err := e.rel.ApplyUpdates(batch)
	if err != nil {
		return nil, err
	}
	rep.Applied = len(applied)
	rep.Skipped = len(skipped)
	if len(applied) == 0 {
		rep.Duration = time.Since(start)
		return rep, nil
	}
	// Frequencies grew; annotations may have crossed into the slack pool,
	// which both widens the enumeration universe and requires purging any
	// cold counts that were excluded from maintenance while irrelevant.
	e.refreshRelevance()

	// Group the applied updates per tuple, dropping items the mining view
	// cannot see (derived labels under ExcludeDerived).
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

	// Phase A: maintain the annotation-pattern catalog. Enumerate, per
	// updated tuple, the annotation subsets completed by this batch.
	gained, overBudget := e.collectGainedAnnotPatterns(perTuple)
	if overBudget {
		// The tuple's annotation set is too large to enumerate; fall back
		// to a full re-mine (counted, and visible in benchmarks).
		if err := e.bootstrap(); err != nil {
			return nil, err
		}
		e.stats.Remines++
		rep.Remined = true
		rep.Duration = time.Since(start)
		return rep, nil
	}
	freshAnnot := e.applyAnnotPatternGains(gained)

	// Phase B: Figure 12 — update every tracked rule from the updated
	// tuples only.
	e.updateTrackedRulesWithAnnotations(perTuple)
	e.syncAnnotationSingletons()

	// Phase C: Figure 13 — discover rules born in this batch.
	e.discoverDataRulesFromAnnotations(perTuple, rep)
	e.discoverAnnotRulesFromFreshPatterns(freshAnnot, rep)

	e.reclassify(rep)
	rep.Duration = time.Since(start)
	return rep, nil
}

// collectGainedAnnotPatterns enumerates, over the mining view of each
// updated tuple, every annotation subset that contains at least one
// newly added annotation, returning per-pattern gains. The enumeration is
// budgeted; exceeding the budget reports overBudget.
func (e *Engine) collectGainedAnnotPatterns(perTuple map[int]itemset.Itemset) (map[itemset.Key]int, bool) {
	gained := make(map[itemset.Key]int)
	budget := e.opts.subsetBudget()
	maxLen := e.cfg.MaxLen
	spent := 0
	for idx, newAnnots := range perTuple {
		tu, err := e.rel.Tuple(idx)
		if err != nil {
			continue // index validated by ApplyUpdates; defensive only
		}
		// Only annotations at slack-pool frequency can appear in a pattern
		// worth tracking: a pattern's count is at most its rarest member's
		// frequency. This keeps the enumeration at 2^(few) even when
		// tuples accumulate many rare annotations.
		annots := e.projectTuple(tu).AnnotationPart().Filter(func(a itemset.Item) bool {
			return e.relevant[a]
		})
		newAnnots = newAnnots.Filter(func(a itemset.Item) bool { return e.relevant[a] })
		if newAnnots.Empty() {
			continue
		}
		limit := annots.Len()
		if maxLen > 0 && maxLen < limit {
			limit = maxLen
		}
		// Worst-case subset count for the budget check.
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
				if !sub.Intersect(newAnnots).Empty() {
					gained[sub.Key()]++
				}
				return true
			})
		}
	}
	return gained, false
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

// updateTrackedRulesWithAnnotations is Figure 12: refresh tracked rule
// counts by examining only the updated tuples. For a data-to-annotation
// rule only the pattern count can grow (the pure-data LHS is untouched by
// annotation adds); for an annotation-to-annotation rule both the pattern
// count (annotation in the R.H.S. case) and the LHS count (annotation in
// the L.H.S. case) can grow, the latter being what may pull confidence
// below threshold.
func (e *Engine) updateTrackedRulesWithAnnotations(perTuple map[int]itemset.Itemset) {
	views := make([]annotDeltaView, 0, len(perTuple))
	for idx, newAnnots := range perTuple {
		tu, err := e.rel.Tuple(idx)
		if err != nil {
			continue
		}
		views = append(views, annotDeltaView{items: e.projectTuple(tu), changed: newAnnots})
	}
	e.adjustTrackedRules(views, +1)
}

// annotDeltaView is one tuple an annotation batch touched: its mining view
// (after an attach, before a detach) and the annotations the batch attached
// or detached there.
type annotDeltaView struct {
	items   itemset.Itemset
	changed itemset.Itemset
}

// adjustTrackedRules moves every tracked rule's pattern and LHS counts by
// sign for each view in which the batch completed (attach, sign +1) or
// broke (detach, sign -1) the rule's pattern or annotation LHS.
func (e *Engine) adjustTrackedRules(views []annotDeltaView, sign int) {
	// Bucket views by changed annotation: a rule can only be affected by
	// views that changed one of the rule's own annotations, so each rule
	// visits a handful of views instead of the whole batch, and a rule with
	// no bucket at all is skipped before anything is allocated for it.
	buckets := make(map[itemset.Item][]int32)
	for i, v := range views {
		for _, a := range v.changed {
			buckets[a] = append(buckets[a], int32(i))
		}
	}
	visited := make([]uint32, len(views))
	var stamp uint32
	for _, set := range []*rules.Set{e.valid, e.cands, e.coldRules} {
		set.Rewrite(func(r *rules.Rule) bool {
			if !touchedBy(buckets, r) {
				return false
			}
			pattern := r.Pattern()
			lhsAnnot := r.LHS.HasAnnotation()
			changed := false
			stamp++
			for _, a := range pattern.AnnotationPart() {
				for _, vi := range buckets[a] {
					if visited[vi] == stamp {
						continue
					}
					visited[vi] = stamp
					v := &views[vi]
					// Pattern completed (or broken) by this batch: present
					// after the attach (before the detach), and at least one
					// of its members changed.
					if v.changed.Intersects(pattern) && v.items.ContainsAll(pattern) {
						r.PatternCount += sign
						changed = true
					}
					// Likewise the LHS (annotation LHS only).
					if lhsAnnot && v.changed.Intersects(r.LHS) && v.items.ContainsAll(r.LHS) {
						r.LHSCount += sign
						changed = true
					}
				}
			}
			return changed
		})
	}
}

// touchedBy reports whether any of r's annotations has a bucket, that is,
// whether the batch changed one of them. It allocates nothing.
func touchedBy(buckets map[itemset.Item][]int32, r *rules.Rule) bool {
	if len(buckets[r.RHS]) > 0 {
		return true
	}
	for _, it := range r.LHS {
		if it.IsAnnotation() && len(buckets[it]) > 0 {
			return true
		}
	}
	return false
}

// discoverDataRulesFromAnnotations is Figure 13 Step 1: for each added
// annotation a on tuple t, every already-frequent data pattern X ⊆ t may
// now form a rule X ⇒ a. The pattern count is computed exactly over the
// tuples carrying a (annotation index); the LHS count ("de-numerator") is
// already known from the data catalog.
func (e *Engine) discoverDataRulesFromAnnotations(perTuple map[int]itemset.Itemset, rep *Report) {
	// Group the updated tuples by added annotation so the data catalog is
	// walked once per annotation rather than once per update.
	byAnnot := make(map[itemset.Item][]relation.Tuple)
	for idx, newAnnots := range perTuple {
		tu, err := e.rel.Tuple(idx)
		if err != nil {
			continue
		}
		for _, a := range newAnnots {
			// Cheap gate from the frequency table (the paper: "First, the
			// annotation must be a frequent annotation by itself").
			if e.rel.Frequency(a) < e.slackCount {
				continue
			}
			byAnnot[a] = append(byAnnot[a], tu)
		}
	}
	for a, tuples := range byAnnot {
		e.dataCat.Each(func(x itemset.Itemset, lhsCount int) bool {
			hit := false
			for i := range tuples {
				if tuples[i].Data.ContainsAll(x) {
					hit = true
					break
				}
			}
			if !hit {
				return true
			}
			r := rules.Rule{LHS: x, RHS: a, LHSCount: lhsCount, N: e.n}
			if e.trackedRule(r.ID()) {
				return true
			}
			// Counted from the bitmaps of a and of x's data values.
			r.PatternCount = e.rel.CountPattern(r.Pattern())
			if e.fileRule(r) {
				rep.Discovered++
				e.stats.Discoveries++
			}
			return true
		})
	}
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
			id := r.ID()
			if e.trackedRule(id) {
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
