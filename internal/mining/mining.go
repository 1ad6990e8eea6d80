// Package mining is the annotation-targeted mining driver: it runs a
// frequent-itemset miner (Apriori or FP-Growth) over one captured generation
// of an annotated relation and extracts the two rule families of the paper —
// data-to-annotation (Def. 4.2) and annotation-to-annotation (Def. 4.3) —
// together with the side products the incremental engine needs:
//
//   - the frequent pure-data pattern catalog (rule LHS "de-numerators");
//   - the frequent annotation pattern catalog;
//   - the candidate store of near-miss rules ("rules slightly below the
//     minimum support and confidence requirements", §4.3 Results), mined at
//     a slack-reduced threshold so that later updates can promote them
//     without touching the full database.
//
// Apriori reads the relation's inverted index directly: level 1 comes from
// the view's item walk and every candidate is counted by ANDing its items'
// bitmaps, so no tuple is read. FP-Growth needs transactions and projects
// them from the same view.
package mining

import (
	"fmt"

	"annotadb/internal/apriori"
	"annotadb/internal/fpgrowth"
	"annotadb/internal/itemset"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// Algorithm selects the frequent-itemset miner.
type Algorithm uint8

const (
	// AlgorithmApriori uses the constraint-aware Apriori miner (Figure 3
	// with the paper's early elimination). The default.
	AlgorithmApriori Algorithm = iota
	// AlgorithmFPGrowth uses FP-Growth with per-annotation conditional
	// databases for the Def. 4.2 patterns.
	AlgorithmFPGrowth
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmApriori:
		return "apriori"
	case AlgorithmFPGrowth:
		return "fp-growth"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// DefaultCandidateSlack is the fraction of the support threshold at which
// near-miss rules are retained for incremental promotion.
const DefaultCandidateSlack = 0.8

// Config parameterizes a full mining pass.
type Config struct {
	// MinSupport α and MinConfidence β, both in [0, 1].
	MinSupport    float64
	MinConfidence float64
	// MineDataRules / MineAnnotRules select the rule families; both false
	// means both true (mine everything).
	MineDataRules  bool
	MineAnnotRules bool
	// IncludeDerived counts generalization labels as annotations during
	// mining, which is how the paper mines the "extended annotated
	// database" of §4.1. Default true via zero-value inversion below.
	ExcludeDerived bool
	// CandidateSlack γ ∈ (0, 1]: near-miss rules are kept when their
	// pattern count reaches γ·α·N. 0 means DefaultCandidateSlack; 1 keeps
	// no extra candidates.
	CandidateSlack float64
	// Algorithm selects the miner.
	Algorithm Algorithm
	// MaxLen bounds pattern size (0 = unbounded).
	MaxLen int
}

func (c Config) mineData() bool  { return c.MineDataRules || !c.MineAnnotRules }
func (c Config) mineAnnot() bool { return c.MineAnnotRules || !c.MineDataRules }

func (c Config) slack() float64 {
	if c.CandidateSlack <= 0 {
		return DefaultCandidateSlack
	}
	if c.CandidateSlack > 1 {
		return 1
	}
	return c.CandidateSlack
}

// Validate rejects out-of-range thresholds.
func (c Config) Validate() error {
	if c.MinSupport < 0 || c.MinSupport > 1 {
		return fmt.Errorf("mining: min support %v out of [0,1]", c.MinSupport)
	}
	if c.MinConfidence < 0 || c.MinConfidence > 1 {
		return fmt.Errorf("mining: min confidence %v out of [0,1]", c.MinConfidence)
	}
	if c.CandidateSlack < 0 || c.CandidateSlack > 1 {
		return fmt.Errorf("mining: candidate slack %v out of [0,1]", c.CandidateSlack)
	}
	return nil
}

// Result carries the rules plus the incremental engine's working state.
type Result struct {
	// Rules hold the valid rules: support ≥ α and confidence ≥ β.
	Rules *rules.Set
	// Candidates hold near-miss rules: pattern count ≥ γ·α·N but either
	// support or confidence below threshold. Disjoint from Rules.
	Candidates *rules.Set
	// DataPatterns catalogs pure-data itemsets with count ≥ γ·α·N
	// (including all rule LHS de-numerators).
	DataPatterns *apriori.Catalog
	// AnnotPatterns catalogs pure-annotation itemsets with count ≥ γ·α·N.
	AnnotPatterns *apriori.Catalog
	// N is the relation size at mining time.
	N int
	// MinCount and SlackCount are the absolute thresholds used.
	MinCount   int
	SlackCount int
}

// transactions projects one generation into the transactions FP-Growth
// mines. When excludeDerived is set, generalization labels are dropped.
func transactions(src relation.Source, excludeDerived bool) []itemset.Itemset {
	txns := make([]itemset.Itemset, 0, src.Len())
	src.Each(func(i int, t relation.Tuple) bool {
		items := t.Items()
		if excludeDerived {
			items = items.Filter(func(it itemset.Item) bool { return !it.IsDerived() })
		}
		txns = append(txns, items)
		return true
	})
	return txns
}

// Mine runs a full mining pass over the relation. It captures one View, so
// both miners read a single generation with no relation lock held for the
// pass; capturing seals the relation, and its next write copies what it
// touches.
func Mine(rel *relation.Relation, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return mine(rel.View(), cfg), nil
}

// mine is Mine over a captured generation and a validated configuration.
func mine(v *relation.View, cfg Config) *Result {
	n := v.Len()
	res := &Result{
		Rules:      rules.NewSet(),
		Candidates: rules.NewSet(),
		N:          n,
		MinCount:   apriori.MinCountFor(cfg.MinSupport, n),
		SlackCount: apriori.MinCountFor(cfg.slack()*cfg.MinSupport, n),
	}
	if res.SlackCount > res.MinCount {
		res.SlackCount = res.MinCount
	}
	if n == 0 {
		res.DataPatterns = apriori.NewCatalog(0)
		res.AnnotPatterns = apriori.NewCatalog(0)
		return res
	}

	switch cfg.Algorithm {
	case AlgorithmFPGrowth:
		mineFPGrowth(transactions(v, cfg.ExcludeDerived), cfg, res)
	default:
		mineApriori(v, cfg, res)
	}
	return res
}

// mineApriori mines both families with the constraint-aware Apriori over
// the view's bitmaps: one pass over every item with an annotation budget of
// 1 (data patterns + Def. 4.2 rule patterns), one unconstrained pass over
// the annotation items alone (Def. 4.3 patterns). Derived labels are left
// out of level 1 under ExcludeDerived, and so out of every candidate.
func mineApriori(v *relation.View, cfg Config, res *Result) {
	visible := func(it itemset.Item) bool { return !cfg.ExcludeDerived || !it.IsDerived() }
	acfg := apriori.Config{MinCount: res.SlackCount, MaxLen: cfg.MaxLen}

	all := apriori.Restrict(v, visible)
	if cfg.mineData() {
		acfg.MaxAnnotations = 1
		mixed := apriori.Mine(all, acfg)
		res.DataPatterns = extractDataCatalog(mixed, res.N)
		extractDataRules(mixed, res, cfg)
	} else {
		acfg.MaxAnnotations = 0
		res.DataPatterns = apriori.Mine(all, acfg)
	}

	acfg.MaxAnnotations = -1
	res.AnnotPatterns = apriori.Mine(apriori.Restrict(v, func(it itemset.Item) bool {
		return it.IsAnnotation() && visible(it)
	}), acfg)
	if cfg.mineAnnot() {
		extractAnnotRules(res.AnnotPatterns, res, cfg)
	}
}

// mineFPGrowth mines the same families with FP-Growth: the data projection
// for pure-data patterns, a conditional database per qualifying annotation
// for the Def. 4.2 patterns, and the annotation projection for Def. 4.3.
func mineFPGrowth(txns []itemset.Itemset, cfg Config, res *Result) {
	fcfg := fpgrowth.Config{MinCount: res.SlackCount, MaxLen: cfg.MaxLen}

	dataTxns := make([]itemset.Itemset, len(txns))
	annotFreq := make(map[itemset.Item]int)
	for i, t := range txns {
		data, annots := t.Split()
		dataTxns[i] = data
		for _, a := range annots {
			annotFreq[a]++
		}
	}
	res.DataPatterns = fpgrowth.Mine(dataTxns, fcfg)
	res.DataPatterns.SetTotal(res.N)

	if cfg.mineData() {
		// Def. 4.2 patterns X ∪ {a}: conditional data mining per annotation.
		// MaxLen applies to the full pattern, so the conditional side mines
		// one item shorter.
		ccfg := fcfg
		if ccfg.MaxLen > 0 {
			ccfg.MaxLen--
			if ccfg.MaxLen == 0 {
				ccfg.MaxLen = -1 // MaxLen 1 ⇒ no conditional patterns at all
			}
		}
		for a, freq := range annotFreq {
			if freq < res.SlackCount {
				continue
			}
			if ccfg.MaxLen < 0 {
				break
			}
			cond := condDataTxns(txns, a)
			catalog := fpgrowth.Mine(cond, ccfg)
			anchor := a
			catalog.Each(func(x itemset.Itemset, count int) bool {
				if count < res.SlackCount {
					return true
				}
				lhsCount, ok := res.DataPatterns.Count(x)
				if !ok {
					// count(X) ≥ count(X∪{a}) ≥ slack ⇒ X is cataloged.
					panic(fmt.Sprintf("mining: LHS %v missing from data catalog", x))
				}
				emitRule(res, cfg, rules.Rule{
					LHS: x, RHS: anchor,
					PatternCount: count, LHSCount: lhsCount, N: res.N,
				})
				return true
			})
		}
	}

	annotTxns := annotationProjection(txns)
	res.AnnotPatterns = fpgrowth.Mine(annotTxns, fcfg)
	res.AnnotPatterns.SetTotal(res.N)
	if cfg.mineAnnot() {
		extractAnnotRules(res.AnnotPatterns, res, cfg)
	}
}

func condDataTxns(txns []itemset.Itemset, anchor itemset.Item) []itemset.Itemset {
	var out []itemset.Itemset
	for _, t := range txns {
		if t.Contains(anchor) {
			out = append(out, t.DataPart())
		}
	}
	return out
}

func annotationProjection(txns []itemset.Itemset) []itemset.Itemset {
	out := make([]itemset.Itemset, len(txns))
	for i, t := range txns {
		out[i] = t.AnnotationPart()
	}
	return out
}

// extractDataCatalog pulls the pure-data itemsets out of the mixed
// (annotation budget 1) catalog.
func extractDataCatalog(mixed *apriori.Catalog, n int) *apriori.Catalog {
	out := apriori.NewCatalog(n)
	mixed.Each(func(s itemset.Itemset, count int) bool {
		if s.PureData() {
			out.Add(s, count)
		}
		return true
	})
	return out
}

// extractDataRules turns each mixed itemset with exactly one annotation into
// a Def. 4.2 rule.
func extractDataRules(mixed *apriori.Catalog, res *Result, cfg Config) {
	mixed.Each(func(p itemset.Itemset, count int) bool {
		if p.Len() < 2 || p.CountAnnotations() != 1 {
			return true
		}
		x, annots := p.Split()
		if x.Empty() {
			return true // a lone annotation, not a rule pattern
		}
		lhsCount, ok := mixed.Count(x)
		if !ok {
			panic(fmt.Sprintf("mining: LHS %v missing from mixed catalog", x))
		}
		emitRule(res, cfg, rules.Rule{
			LHS: x.Clone(), RHS: annots[0],
			PatternCount: count, LHSCount: lhsCount, N: res.N,
		})
		return true
	})
}

// extractAnnotRules turns each annotation pattern P into the |P| Def. 4.3
// rules P\{a} ⇒ a.
func extractAnnotRules(annotCatalog *apriori.Catalog, res *Result, cfg Config) {
	annotCatalog.Each(func(p itemset.Itemset, count int) bool {
		if p.Len() < 2 {
			return true
		}
		for i := 0; i < p.Len(); i++ {
			rhs := p[i]
			lhs := p.WithoutIndex(i)
			lhsCount, ok := annotCatalog.Count(lhs)
			if !ok {
				panic(fmt.Sprintf("mining: LHS %v missing from annotation catalog", lhs))
			}
			emitRule(res, cfg, rules.Rule{
				LHS: lhs, RHS: rhs,
				PatternCount: count, LHSCount: lhsCount, N: res.N,
			})
		}
		return true
	})
}

// emitRule files the rule as valid or near-miss candidate.
func emitRule(res *Result, cfg Config, r rules.Rule) {
	if r.Meets(cfg.MinSupport, cfg.MinConfidence) {
		res.Rules.Add(r)
		return
	}
	if r.PatternCount >= res.SlackCount {
		res.Candidates.Add(r)
	}
}
