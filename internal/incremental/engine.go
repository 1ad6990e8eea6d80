// Package incremental implements the paper's core contribution: maintaining
// the discovered association rules under database evolution without
// re-running the miner from scratch (§4.3).
//
// Three update cases are supported, matching Figure 11:
//
//	Case 1 — adding annotated tuples      (AddAnnotatedTuples)
//	Case 2 — adding un-annotated tuples   (AddUnannotatedTuples)
//	Case 3 — adding annotations to
//	         existing tuples              (AddAnnotations; Figures 12–13)
//
// The engine keeps the state the paper describes: the valid rule set, the
// candidate store of near-miss rules ("rules slightly below the minimum
// support and confidence requirements"), the frequent-pattern catalogs that
// provide the confidence "de-numerators", and — through the relation — the
// annotation frequency table and inverted annotation index.
//
// # Exactness contract
//
// After every update the engine guarantees Rules() is exactly the rule set a
// full re-mine of the current relation would produce, with identical integer
// counts. The paper verifies its implementation by this same criterion
// ("the association rules resulting from both processes were identical");
// here it is a tested invariant. The supporting internal invariants are:
//
//	I1. Every pure-data pattern with count ≥ minCount is in the data
//	    catalog, with its exact count.
//	I2. Every pure-annotation pattern with count ≥ minCount is in the
//	    annotation catalog, with its exact count; for every cataloged
//	    annotation pattern its derived rules are tracked.
//	I3. Every rule (Defs 4.2/4.3) with pattern count ≥ minCount is tracked
//	    in either the valid set or the candidate store, with exact counts.
//
// The catalogs and candidate store may additionally hold entries down to the
// slack threshold γ·α·N; that surplus is a performance optimization (it lets
// borderline rules be promoted without touching the database) and is allowed
// to thin over time — invariants only bind at minCount. It depends on the
// engine's history, and Restore resets it to a full mine's.
package incremental

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"annotadb/internal/apriori"
	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// Case identifies which update path produced a report.
type Case uint8

const (
	// CaseBootstrap is the initial full mine.
	CaseBootstrap Case = iota
	// CaseAnnotatedTuples is Case 1: adding annotated tuples.
	CaseAnnotatedTuples
	// CaseUnannotatedTuples is Case 2: adding un-annotated tuples.
	CaseUnannotatedTuples
	// CaseNewAnnotations is Case 3: adding annotations to existing tuples.
	CaseNewAnnotations
)

// String names the case.
func (c Case) String() string {
	switch c {
	case CaseBootstrap:
		return "bootstrap"
	case CaseAnnotatedTuples:
		return "case1-annotated-tuples"
	case CaseUnannotatedTuples:
		return "case2-unannotated-tuples"
	case CaseNewAnnotations:
		return "case3-new-annotations"
	case CaseRemoveAnnotations:
		return "case4-remove-annotations"
	default:
		return fmt.Sprintf("Case(%d)", uint8(c))
	}
}

// Report summarizes one update operation.
type Report struct {
	Case    Case
	Applied int // tuples appended or annotations attached
	Skipped int // duplicate annotation updates ignored

	Promoted   int // candidates that became valid rules
	Demoted    int // valid rules that fell back to candidates
	Dropped    int // tracked rules dropped below the slack pool
	Discovered int // brand-new rules (valid or candidate) discovered
	Remined    bool

	Duration time.Duration
}

// Options tune engine internals beyond the mining configuration.
type Options struct {
	// SubsetBudget caps the number of annotation subsets an attach (Case 3)
	// or detach batch may mine, counted as the worst case over the tuples it
	// changed, before falling back to a full re-mine. Zero means
	// DefaultSubsetBudget.
	SubsetBudget int
}

// DefaultSubsetBudget bounds annotation-subset enumeration per batch.
const DefaultSubsetBudget = 1 << 20

func (o Options) subsetBudget() int {
	if o.SubsetBudget <= 0 {
		return DefaultSubsetBudget
	}
	return o.SubsetBudget
}

// Engine maintains rules over one relation. Not safe for concurrent use of
// mutating methods; all methods serialize on an internal mutex so read
// methods are safe alongside a single mutator.
type Engine struct {
	mu   sync.Mutex
	rel  *relation.Relation
	cfg  mining.Config
	opts Options

	valid *rules.Set
	cands *rules.Set

	// view memoizes valid.Freeze() between mutations so that snapshot reads
	// are O(1) after the first. Invalidated by bootstrap and reclassify,
	// which every mutating path funnels through (paths that early-return
	// without reaching them did not change the rule set). candsView is the
	// same memo for the candidate tier, invalidated at the same points.
	view      *rules.View
	candsView *rules.View

	dataCat  *apriori.Catalog
	annotCat *apriori.Catalog

	// The cold tier memoizes exact counts for patterns and rules that fell
	// below the slack pool but were observed by some update. Without it,
	// every Case 3 batch re-scans the annotation index for the same
	// below-threshold patterns; with it, those scans happen once and the
	// counts are thereafter maintained by the same delta bookkeeping as the
	// tracked tiers. Entries are caches, not invariants: clearing them (the
	// size cap does) costs re-scans, never correctness.
	coldRules *rules.Set
	coldAnnot map[itemset.Key]int
	coldData  map[itemset.Key]int

	// relevant marks annotations whose frequency reaches the slack pool. A
	// pattern's count is bounded by its rarest member's frequency, so only
	// patterns over relevant annotations can ever reach the slack pool —
	// which is what keeps an annotation batch's pattern mining small even
	// on heavily annotated tuples. Maintained by refreshRelevance.
	relevant annotFlags

	// Per-batch scratch, reused so a batch allocates little once it has
	// grown: the tuples a write reported (delta) and their batch index
	// (batch; its after side alone holds a Case 1–2 batch), the annotations
	// the batch changed (changed, changedList) and the relevant ones among
	// them with the positions each changed at (frequent, moved, gains), the
	// annotation patterns the batch moved and their counter (changes,
	// subsets), and pattern and rule-identity buffers.
	delta       relation.Delta
	batch       relation.BatchIndex
	changed     annotFlags
	changedList []itemset.Item
	frequent    []itemset.Item
	moved       []relation.Postings
	gains       []int
	changes     []patternChange
	subsets     subsetCounter
	scratch     itemset.Itemset
	id          []byte

	n          int
	minCount   int
	slackCount int

	stats Stats
}

// maxColdEntries bounds each cold-cache tier; exceeding it clears the tier.
const maxColdEntries = 1 << 18

// Stats aggregates engine activity over its lifetime. Of its counters only
// Remines (full re-mine fallbacks) is on the /stats wire, inside each
// serving section that embeds it.
type Stats struct {
	Bootstraps  int `json:"-"`
	Case1       int `json:"-"`
	Case2       int `json:"-"`
	Case3       int `json:"-"`
	Removals    int `json:"-"`
	Remines     int `json:"remines"`
	Promotions  int `json:"-"`
	Demotions   int `json:"-"`
	Discoveries int `json:"-"`
}

// New bootstraps an engine over rel with a full mining pass.
// The engine takes ownership of rel: callers must route all further
// mutations through the engine.
func New(rel *relation.Relation, cfg mining.Config, opts Options) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{rel: rel, cfg: cfg, opts: opts}
	if err := e.bootstrap(); err != nil {
		return nil, err
	}
	return e, nil
}

// bootstrap (re)mines the full relation and replaces all engine state.
// Callers must hold e.mu (New is exempt: the engine is unpublished).
func (e *Engine) bootstrap() error {
	res, err := mining.Mine(e.rel, e.cfg)
	if err != nil {
		return fmt.Errorf("incremental: bootstrap mine: %w", err)
	}
	e.valid = res.Rules
	e.cands = res.Candidates
	e.dataCat = res.DataPatterns
	e.annotCat = res.AnnotPatterns
	e.coldRules = rules.NewSet()
	e.coldAnnot = make(map[itemset.Key]int)
	e.coldData = make(map[itemset.Key]int)
	e.n = res.N
	e.minCount = res.MinCount
	e.slackCount = res.SlackCount
	e.relevant = annotFlags{}
	e.view = nil
	e.candsView = nil
	e.refreshRelevance()
	e.stats.Bootstraps++
	return nil
}

// refreshRelevance recomputes which annotations can participate in
// slack-level patterns and purges cold-cached annotation patterns that
// contain an annotation whose relevance flipped. Purging on the upward flip
// is a correctness requirement, not tidiness: while an annotation was
// irrelevant its patterns were excluded from gain enumeration, so any cold
// counts involving it may have missed gains and must be re-counted fresh on
// next contact. (Cold rules are exempt — they are updated by exhaustive
// iteration, never by enumeration.)
//
// The frequency table is read in place and relevant is updated in place, so
// a batch that moves no annotation across the pool allocates nothing here.
func (e *Engine) refreshRelevance() {
	var crossed []itemset.Item
	e.rel.EachFrequency(func(a itemset.Item, freq int) {
		if e.cfg.ExcludeDerived && a.IsDerived() {
			return
		}
		if now := freq >= e.slackCount; now != e.relevant.has(a) {
			crossed = append(crossed, a)
			e.relevant.set(a, now)
		}
	})
	if len(crossed) == 0 || len(e.coldAnnot) == 0 {
		return
	}
	for key := range e.coldAnnot {
		p, err := key.Decode()
		if err != nil {
			panic(fmt.Sprintf("incremental: corrupt cold-cache key: %v", err))
		}
		for _, a := range crossed {
			if p.Contains(a) {
				delete(e.coldAnnot, key)
				break
			}
		}
	}
}

// Relation returns the underlying relation. Treat it as read-only; mutate
// through the engine.
func (e *Engine) Relation() *relation.Relation { return e.rel }

// Config returns the mining configuration the engine maintains rules under.
func (e *Engine) Config() mining.Config { return e.cfg }

// Stats returns a copy of the lifetime counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Rules returns a snapshot of the valid rule set.
func (e *Engine) Rules() *rules.Set {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.valid.Clone()
}

// RulesView returns an immutable view of the valid rule set. The view is
// memoized: between mutations, repeated calls return the same pointer
// without copying, which makes it the cheap read path for serving layers.
func (e *Engine) RulesView() *rules.View {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rulesViewLocked()
}

func (e *Engine) rulesViewLocked() *rules.View {
	if e.view == nil {
		e.view = e.valid.Freeze()
	}
	return e.view
}

// Snapshot is a consistent capture of the engine's externally visible state,
// taken under one lock acquisition: the rule view, the relation generation
// those rules were maintained against, the thresholds' world size, and the
// lifetime counters. Everything in a Snapshot is immutable and safe to
// share; in particular Rules and View are guaranteed to belong to the same
// generation, so a reader that evaluates Rules against a tuple fetched from
// View can never see a torn pairing.
type Snapshot struct {
	// Rules is the immutable valid rule set.
	Rules *rules.View
	// Candidates is the near-miss slack pool of the same generation, frozen
	// alongside Rules so tier transitions (promotions, demotions) can be
	// diffed exactly between consecutive snapshots.
	Candidates *rules.View
	// View is the immutable relation generation the rules were maintained
	// against.
	View *relation.View
	// N is the relation size the rules' denominators refer to, and MinCount
	// the absolute support threshold.
	N        int
	MinCount int
	// RelVersion is the relation's mutation counter at capture; the live
	// relation's Version minus this value is the capture's staleness.
	RelVersion uint64
	// Stats are the engine lifetime counters at capture.
	Stats Stats
}

// Snapshot captures the current state atomically with respect to updates.
// The engine lock orders the capture against mutating paths, and every
// mutating path updates the relation before reclassifying rules, so the
// returned rule view is exactly the rule set of the returned relation view.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	rv := e.rel.View()
	if e.candsView == nil {
		e.candsView = e.cands.Freeze()
	}
	return Snapshot{
		Rules:      e.rulesViewLocked(),
		Candidates: e.candsView,
		View:       rv,
		N:          e.n,
		MinCount:   e.minCount,
		RelVersion: rv.Version(),
		Stats:      e.stats,
	}
}

// Candidates returns a snapshot of the near-miss candidate store.
func (e *Engine) Candidates() *rules.Set {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cands.Clone()
}

// MinCount returns the current absolute support threshold.
func (e *Engine) MinCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.minCount
}

// Verify re-mines the relation from scratch and compares against the
// maintained state, returning an error describing the first discrepancy.
// It is the paper's evaluation methodology as an assertable check: the
// valid tier must equal the re-mine's, and so must the candidates with
// pattern count ≥ minCount (invariant I3). The surplus below minCount is
// not compared; it depends on the engine's history.
func (e *Engine) Verify() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	res, err := mining.Mine(e.rel, e.cfg)
	if err != nil {
		return fmt.Errorf("incremental: verify mine: %w", err)
	}
	if diff := rules.Diff(e.valid, res.Rules, e.rel.Dictionary()); len(diff) != 0 {
		return fmt.Errorf("incremental: verify: %d discrepancies, first: %s", len(diff), diff[0])
	}
	bound := func(r rules.Rule) bool { return r.PatternCount >= res.MinCount }
	if diff := rules.Diff(e.cands.Filter(bound), res.Candidates.Filter(bound), e.rel.Dictionary()); len(diff) != 0 {
		return fmt.Errorf("incremental: verify: %d candidate discrepancies at or above min support, first: %s", len(diff), diff[0])
	}
	return nil
}

// tracked reports whether r's identity is maintained in any tier — valid,
// candidate, or cold. Maintained rules have exact counts and must not be
// re-derived by discovery. The identity is built in e.id, so a probe
// allocates nothing.
func (e *Engine) tracked(r *rules.Rule) bool {
	e.id = r.AppendID(e.id[:0])
	return e.valid.HasID(e.id) || e.cands.HasID(e.id) || e.coldRules.HasID(e.id)
}

// fileRule routes a rule into the valid set or candidate store by its
// thresholds; rules below the slack pool land in the cold cache so their
// exact counts are not recomputed by the next batch. Returns true when the
// rule entered a tracked (valid/candidate) tier.
func (e *Engine) fileRule(r rules.Rule) bool {
	if r.Meets(e.cfg.MinSupport, e.cfg.MinConfidence) {
		e.valid.Add(r)
		return true
	}
	if r.PatternCount >= e.slackCount {
		e.cands.Add(r)
		return true
	}
	e.coldRules.Add(r)
	return false
}

// reclassify re-evaluates every tracked rule after counts or thresholds
// changed, moving rules between the valid set and candidate store and
// dropping candidates that fell below the slack pool.
func (e *Engine) reclassify(rep *Report) {
	e.view = nil
	e.candsView = nil
	var demote []rules.Rule
	e.valid.Each(func(r rules.Rule) bool {
		if !r.Meets(e.cfg.MinSupport, e.cfg.MinConfidence) {
			demote = append(demote, r)
		}
		return true
	})
	for _, r := range demote {
		e.valid.Remove(r.ID())
		if r.PatternCount >= e.slackCount {
			e.cands.Add(r)
			rep.Demoted++
			e.stats.Demotions++
		} else {
			e.coldRules.Add(r)
			rep.Dropped++
		}
	}
	var promote []rules.Rule
	var drop []rules.Rule
	e.cands.Each(func(r rules.Rule) bool {
		switch {
		case r.Meets(e.cfg.MinSupport, e.cfg.MinConfidence):
			promote = append(promote, r)
		case r.PatternCount < e.slackCount:
			drop = append(drop, r)
		}
		return true
	})
	for _, r := range promote {
		e.cands.Remove(r.ID())
		e.valid.Add(r)
		rep.Promoted++
		e.stats.Promotions++
	}
	for _, r := range drop {
		e.cands.Remove(r.ID())
		e.coldRules.Add(r)
		rep.Dropped++
	}
	// Cold rules climb back when their exactly maintained counts recover.
	// Only arrival in the valid set counts as a promotion; cold→candidate
	// moves are tier bookkeeping, not rule-validity changes.
	var warm []rules.Rule
	e.coldRules.Each(func(r rules.Rule) bool {
		if r.PatternCount >= e.slackCount || r.Meets(e.cfg.MinSupport, e.cfg.MinConfidence) {
			warm = append(warm, r)
		}
		return true
	})
	for _, r := range warm {
		e.coldRules.Remove(r.ID())
		e.fileRule(r)
		if e.valid.Has(r.ID()) {
			rep.Promoted++
			e.stats.Promotions++
		}
	}
	e.capCold()
}

// capCold clears any cold tier that outgrew its budget; the tiers are pure
// caches, so clearing costs future re-scans, never correctness.
func (e *Engine) capCold() {
	if e.coldRules.Len() > maxColdEntries {
		e.coldRules = rules.NewSet()
	}
	if len(e.coldAnnot) > maxColdEntries {
		e.coldAnnot = make(map[itemset.Key]int)
	}
	if len(e.coldData) > maxColdEntries {
		e.coldData = make(map[itemset.Key]int)
	}
}

// refreshThresholds recomputes the absolute thresholds after N changed.
func (e *Engine) refreshThresholds() {
	e.n = e.rel.Len()
	e.minCount = apriori.MinCountFor(e.cfg.MinSupport, e.n)
	slack := e.cfg.CandidateSlack
	if slack <= 0 {
		slack = mining.DefaultCandidateSlack
	}
	e.slackCount = apriori.MinCountFor(slack*e.cfg.MinSupport, e.n)
	if e.slackCount > e.minCount {
		e.slackCount = e.minCount
	}
	e.dataCat.SetTotal(e.n)
	e.annotCat.SetTotal(e.n)
}

// syncAnnotationSingletons reconciles annotation singleton patterns with the
// relation's exact frequency table (the paper's "table containing the
// frequency of each annotation ... updated whenever a new annotation is
// added"). Singletons at or above the slack pool are (re)cataloged for
// free; the rest stay warm in the cold cache.
func (e *Engine) syncAnnotationSingletons() {
	e.rel.EachFrequency(func(a itemset.Item, freq int) {
		if e.cfg.ExcludeDerived && a.IsDerived() {
			return
		}
		e.syncSingleton(a, freq)
	})
}

// syncChangedSingletons is syncAnnotationSingletons for an annotation batch:
// the relation size and so the slack pool stay put, and only the changed
// annotations' frequencies moved.
func (e *Engine) syncChangedSingletons() {
	for _, a := range e.changedList {
		e.syncSingleton(a, e.rel.Frequency(a))
	}
}

func (e *Engine) syncSingleton(a itemset.Item, freq int) {
	single := itemset.Itemset{a}
	if freq >= e.slackCount {
		e.annotCat.Add(single, freq)
		delete(e.coldAnnot, single.Key())
	} else {
		e.annotCat.Remove(single)
		e.coldAnnot[single.Key()] = freq
	}
}

// allRelevant reports whether every member of a pure-annotation pattern is
// at slack-pool frequency. Only such patterns may enter the cold annotation
// cache: the Case 3 gain enumeration skips irrelevant members, so a cached
// pattern containing one would silently miss gains.
func (e *Engine) allRelevant(p itemset.Itemset) bool {
	for _, a := range p {
		if !e.relevant.has(a) {
			return false
		}
	}
	return true
}

// annotFlags is a flag per annotation, dense by item id on each annotation
// kind's spine (raw and derived ids are each dense from 1), so a probe is
// two slice reads and never hashes.
type annotFlags [2][]bool

func (f *annotFlags) has(a itemset.Item) bool {
	s := f[flagSpine(a)]
	return a.ID() < len(s) && s[a.ID()]
}

func (f *annotFlags) set(a itemset.Item, on bool) {
	k, id := flagSpine(a), a.ID()
	if id >= len(f[k]) {
		if !on {
			return
		}
		f[k] = append(f[k], make([]bool, id+1-len(f[k]))...)
	}
	f[k][id] = on
}

func flagSpine(a itemset.Item) int {
	if a.IsDerived() {
		return 1
	}
	return 0
}

// patternOf returns r's pattern, LHS ∪ {RHS}, built in e.scratch: the
// callers count it once and keep nothing, so it costs no allocation.
func (e *Engine) patternOf(r *rules.Rule) itemset.Itemset {
	i, _ := slices.BinarySearch(r.LHS, r.RHS)
	e.scratch = append(append(append(e.scratch[:0], r.LHS[:i]...), r.RHS), r.LHS[i:]...)
	return e.scratch
}
