// Microbenchmarks regenerating the paper's evaluation, one benchmark (or
// sub-benchmark family) per table/figure. The table-shaped counterparts live
// in internal/bench and are rendered by cmd/annotbench. Figures 3, 12, and 13
// are algorithms (their reproduction is the implementation plus its
// equivalence tests), and Figure 11 is a direction matrix checked by property
// tests and experiment E6, so they have no timing benchmark here.
package annotadb

import (
	"fmt"
	"testing"

	"annotadb/internal/generalize"
	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/predict"
	"annotadb/internal/relation"
	"annotadb/internal/workload"
)

const (
	benchTuples = 8000 // the paper's ≈8000-entry dataset
	benchSup    = 0.4  // the paper's conservative thresholds (§4.3)
	benchConf   = 0.8
)

func benchBase(b *testing.B) (*workload.Generator, *relation.Relation) {
	b.Helper()
	gen, err := workload.NewGenerator(workload.Default8K(1))
	if err != nil {
		b.Fatal(err)
	}
	rel, err := gen.Generate()
	if err != nil {
		b.Fatal(err)
	}
	return gen, rel
}

func benchConfig() mining.Config {
	return mining.Config{MinSupport: benchSup, MinConfidence: benchConf}
}

// BenchmarkFig16FullRemine is the Figure 16 baseline: re-running the full
// Apriori pass after every update (the paper measured ≈12 s per pass).
func BenchmarkFig16FullRemine(b *testing.B) {
	_, rel := benchBase(b)
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.Mine(rel, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// engineCycler provides a warm, long-lived engine for steady-state
// incremental benchmarks. The engine is rebuilt (and re-warmed with one
// unmeasured batch) after roughly maxAccumulated applied updates so
// accumulated batches cannot saturate the relation's annotation space and
// skew later iterations.
type engineCycler struct {
	b         *testing.B
	gen       *workload.Generator
	base      *relation.Relation
	cfg       mining.Config
	opts      incremental.Options
	warm      func(*incremental.Engine) error
	batchSize int
	eng       *incremental.Engine
	accum     int
}

// maxAccumulated bounds per-engine drift to ≈4% of the 8000×12 annotation
// slot space before a rebuild.
const maxAccumulated = 4000

// next returns the engine to measure against, rebuilding outside the timer
// when due. Call with the timer running.
func (c *engineCycler) next() *incremental.Engine {
	if c.eng == nil || c.accum > maxAccumulated {
		c.b.StopTimer()
		eng, err := incremental.New(c.base.Clone(), c.cfg, c.opts)
		if err != nil {
			c.b.Fatal(err)
		}
		if err := c.warm(eng); err != nil {
			c.b.Fatal(err)
		}
		c.eng = eng
		c.accum = 0
		c.b.StartTimer()
	}
	c.accum += c.batchSize
	return c.eng
}

func newAnnotationCycler(b *testing.B, m int, opts incremental.Options) *engineCycler {
	gen, rel := benchBase(b)
	return &engineCycler{
		b: b, gen: gen, base: rel, cfg: benchConfig(), opts: opts, batchSize: m,
		warm: func(eng *incremental.Engine) error {
			batch, err := gen.AnnotationBatch(eng.Relation(), m, 0.6)
			if err != nil {
				return err
			}
			_, err = eng.AddAnnotations(batch)
			return err
		},
	}
}

// BenchmarkFig16Incremental measures the incremental alternative: applying
// a δ batch of new annotations through a warm, long-lived maintenance
// engine (Case 3, Figures 12–13).
func BenchmarkFig16Incremental(b *testing.B) {
	for _, m := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("batch%d", m), func(b *testing.B) {
			c := newAnnotationCycler(b, m, incremental.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := c.next()
				b.StopTimer()
				batch, err := c.gen.AnnotationBatch(eng.Relation(), m, 0.6)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := eng.AddAnnotations(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAprioriSupportSweep regenerates the §4.3 observation that Apriori
// cost grows by magnitudes as minimum support falls.
func BenchmarkAprioriSupportSweep(b *testing.B) {
	_, rel := benchBase(b)
	for _, sup := range []float64{0.5, 0.4, 0.3, 0.2, 0.1} {
		b.Run(fmt.Sprintf("sup%.2f", sup), func(b *testing.B) {
			cfg := mining.Config{MinSupport: sup, MinConfidence: benchConf}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mining.Mine(rel, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCase1Incremental: adding annotated tuples (the §4.3 Case 1
// results), maintenance only, steady state.
func BenchmarkCase1Incremental(b *testing.B) {
	gen, rel := benchBase(b)
	c := &engineCycler{
		b: b, gen: gen, base: rel, cfg: benchConfig(), batchSize: 200,
		warm: func(eng *incremental.Engine) error {
			batch, err := gen.AnnotatedTuples(eng.Relation().Dictionary(), 200)
			if err != nil {
				return err
			}
			_, err = eng.AddAnnotatedTuples(batch)
			return err
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := c.next()
		b.StopTimer()
		batch, err := gen.AnnotatedTuples(eng.Relation().Dictionary(), 200)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.AddAnnotatedTuples(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCase2Incremental: adding un-annotated tuples (§4.3 Case 2),
// steady state.
func BenchmarkCase2Incremental(b *testing.B) {
	gen, rel := benchBase(b)
	c := &engineCycler{
		b: b, gen: gen, base: rel, cfg: benchConfig(), batchSize: 200,
		warm: func(eng *incremental.Engine) error {
			batch, err := gen.UnannotatedTuples(eng.Relation().Dictionary(), 200)
			if err != nil {
				return err
			}
			_, err = eng.AddUnannotatedTuples(batch)
			return err
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := c.next()
		b.StopTimer()
		batch, err := gen.UnannotatedTuples(eng.Relation().Dictionary(), 200)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.AddUnannotatedTuples(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCase3Incremental: adding annotations to existing tuples (§4.3
// Case 3) at the middle batch size; the same operation Fig16Incremental
// sweeps.
func BenchmarkCase3Incremental(b *testing.B) {
	c := newAnnotationCycler(b, 200, incremental.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := c.next()
		b.StopTimer()
		batch, err := c.gen.AnnotationBatch(eng.Relation(), 200, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.AddAnnotations(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendScan: §5 exploitation case 1 — the whole-database
// missing-annotation scan behind Figure 17.
func BenchmarkRecommendScan(b *testing.B) {
	_, rel := benchBase(b)
	res, err := mining.Mine(rel, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	rc := predict.NewRecommender(rel, predict.StaticRules{Set: res.Rules}, predict.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs := rc.ScanAll(); len(recs) == 0 {
			b.Fatal("no recommendations; workload regression")
		}
	}
}

// BenchmarkTriggerOnInsert: §5 exploitation case 2 — the per-batch trigger
// scan after inserting 100 tuples.
func BenchmarkTriggerOnInsert(b *testing.B) {
	gen, rel := benchBase(b)
	res, err := mining.Mine(rel, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	rc := predict.NewRecommender(rel, predict.StaticRules{Set: res.Rules}, predict.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch, err := gen.UnannotatedTuples(rel.Dictionary(), 100)
		if err != nil {
			b.Fatal(err)
		}
		start := rel.Append(batch...)
		b.StartTimer()
		_ = rc.OnInsert(start)
	}
}

// BenchmarkGeneralizedMining: §4.1 — mining the raw database vs the
// label-extended database (Figures 8–10).
func BenchmarkGeneralizedMining(b *testing.B) {
	_, raw := benchBase(b)
	extended := raw.Clone()
	h, err := generalize.Build([]generalize.Rule{
		{Label: "Annot_Flagged", Sources: []string{"Annot_1", "Annot_5"}},
		{Label: "Annot_Reviewed", Sources: []string{"Annot_4"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.Apply(extended); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rel  *relation.Relation
	}{{"raw", raw}, {"extended", extended}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := benchConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mining.Mine(tc.rel, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCandidateStore compares Case 3 maintenance with the
// near-miss candidate store enabled (the paper's design) vs disabled.
func BenchmarkAblationCandidateStore(b *testing.B) {
	for _, tc := range []struct {
		name     string
		disabled bool
	}{{"on", false}, {"off", true}} {
		b.Run(tc.name, func(b *testing.B) {
			c := newAnnotationCycler(b, 200, incremental.Options{})
			if tc.disabled {
				c.cfg.CandidateSlack = 1
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := c.next()
				b.StopTimer()
				batch, err := c.gen.AnnotationBatch(eng.Relation(), 200, 0.8)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := eng.AddAnnotations(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFPGrowthVsApriori compares the two interchangeable miners the
// driver supports ("any of the state-of-art techniques", §4).
func BenchmarkFPGrowthVsApriori(b *testing.B) {
	_, rel := benchBase(b)
	for _, tc := range []struct {
		name string
		alg  mining.Algorithm
	}{{"apriori", mining.AlgorithmApriori}, {"fpgrowth", mining.AlgorithmFPGrowth}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := mining.Config{MinSupport: 0.2, MinConfidence: benchConf, Algorithm: tc.alg}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mining.Mine(rel, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCase4RemoveAnnotations: the §6 future-work extension — removal
// batches maintained incrementally, steady state.
func BenchmarkCase4RemoveAnnotations(b *testing.B) {
	c := newAnnotationCycler(b, 200, incremental.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := c.next()
		b.StopTimer()
		// Re-add a batch (unmeasured) so there is always something to
		// remove, then measure removing it.
		add, err := c.gen.AnnotationBatch(eng.Relation(), 200, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := eng.AddAnnotations(add)
		if err != nil {
			b.Fatal(err)
		}
		_ = rep
		b.StartTimer()
		if _, err := eng.RemoveAnnotations(add); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrap measures engine construction (full mine + state
// capture) — the fixed cost the incremental path amortizes away.
func BenchmarkBootstrap(b *testing.B) {
	_, rel := benchBase(b)
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := incremental.New(rel.Clone(), cfg, incremental.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
