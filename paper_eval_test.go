package annotadb

import (
	"fmt"
	"testing"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/predict"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
	"annotadb/internal/workload"
)

// paperCorpusTuples is the generator corpus the paper-evaluation test runs
// on: the paper's Default8K shape, shrunk to a size every run can afford.
const paperCorpusTuples = 400

// TestPaperEvaluationOnGeneratorCorpus checks the claims of the paper's
// evaluation on the generator corpus (workload.Default8K at 400 tuples,
// seed 1, the paper's 0.4 / 0.8 thresholds). Each update case of §4.3 —
// annotated tuples, un-annotated tuples, new annotations with and without
// the candidate store, and the §6 removal extension — leaves the engine's
// rules and candidates identical to a full re-mine after every batch, and
// the §5 recommender recovers annotations withheld from planted rules. The
// benchmarks in bench_test.go time the same experiments.
func TestPaperEvaluationOnGeneratorCorpus(t *testing.T) {
	paper := mining.Config{MinSupport: benchSup, MinConfidence: benchConf}
	noCandidateStore := paper
	noCandidateStore.CandidateSlack = 1
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, gen *workload.Generator, rel *relation.Relation)
	}{
		{"case1_annotated_tuples", func(t *testing.T, gen *workload.Generator, rel *relation.Relation) {
			for _, m := range []int{10, 40} {
				maintain(t, rel, paper, 2, func(e *incremental.Engine) error {
					batch, err := gen.AnnotatedTuples(e.Relation().Dictionary(), m)
					if err == nil {
						_, err = e.AddAnnotatedTuples(batch)
					}
					return err
				})
			}
		}},
		{"case2_unannotated_tuples", func(t *testing.T, gen *workload.Generator, rel *relation.Relation) {
			for _, m := range []int{10, 40} {
				maintain(t, rel, paper, 2, func(e *incremental.Engine) error {
					batch, err := gen.UnannotatedTuples(e.Relation().Dictionary(), m)
					if err == nil {
						_, err = e.AddUnannotatedTuples(batch)
					}
					return err
				})
			}
		}},
		{"fig16_new_annotations", func(t *testing.T, gen *workload.Generator, rel *relation.Relation) {
			// Figure 16's workload: one warm batch, then the measured ones.
			for _, m := range []int{10, 40} {
				maintain(t, rel, paper, 3, func(e *incremental.Engine) error {
					return addAnnotationBatch(gen, e, m, 0.6)
				})
			}
		}},
		{"case3_new_annotations", func(t *testing.T, gen *workload.Generator, rel *relation.Relation) {
			// One long-lived engine: Verify after each successive batch.
			e, err := incremental.New(rel, paper, incremental.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for r := 1; r <= 3; r++ {
				if err := addAnnotationBatch(gen, e, 10, 0.6); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				if err := e.Verify(); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
			}
		}},
		{"case3_candidate_store_ablation", func(t *testing.T, gen *workload.Generator, rel *relation.Relation) {
			for _, cfg := range []mining.Config{paper, noCandidateStore} {
				maintain(t, rel, cfg, 2, func(e *incremental.Engine) error {
					return addAnnotationBatch(gen, e, 10, 0.8)
				})
			}
		}},
		{"removal", func(t *testing.T, gen *workload.Generator, rel *relation.Relation) {
			for _, m := range []int{10, 40} {
				round := 0
				maintain(t, rel, paper, 3, func(e *incremental.Engine) error {
					round++
					if round == 1 {
						// Warm with an attach batch so removals undo some of it.
						return addAnnotationBatch(gen, e, m, 0.6)
					}
					batch := sampleRemovals(e.Relation(), m, round)
					if len(batch) == 0 {
						return fmt.Errorf("no attachment to remove among %d tuples", e.Relation().Len())
					}
					_, err := e.RemoveAnnotations(batch)
					return err
				})
			}
		}},
		{"recover_withheld_annotations", func(t *testing.T, gen *workload.Generator, _ *relation.Relation) {
			recoverWithheld(t, gen, paper)
		}},
		{"recover_withheld_annotations_relaxed", func(t *testing.T, gen *workload.Generator, _ *relation.Relation) {
			// Withholding weakens the very rules that recover the withheld
			// annotations, so a relaxed pair recovers more.
			recoverWithheld(t, gen, mining.Config{MinSupport: benchSup * 0.75, MinConfidence: benchConf * 0.85})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := workload.Default8K(1)
			spec.Tuples = paperCorpusTuples
			gen, err := workload.NewGenerator(spec)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := gen.Generate()
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, gen, rel)
		})
	}
}

// recoverWithheld withholds 10, 20 and 30 % of the planted rules'
// consequents and checks that rules mined at cfg recover some of them.
func recoverWithheld(t *testing.T, gen *workload.Generator, cfg mining.Config) {
	t.Helper()
	for _, withhold := range []float64{0.1, 0.2, 0.3} {
		rel, truth, err := gen.GenerateWithWithholding(withhold)
		if err != nil {
			t.Fatal(err)
		}
		out, err := mining.Mine(rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs := predict.Compile(out.Rules.Freeze(), predict.Options{}).ScanRange(rel, 0, rel.Len())
		if ev := predict.Evaluate(recs, truth); ev.Recall() <= 0 {
			t.Errorf("withholding %.0f%% at %v / %v: recovered no withheld annotation (%+v)",
				withhold*100, cfg.MinSupport, cfg.MinConfidence, ev)
		}
	}
}

// maintain builds an engine over a copy of rel and applies rounds batches
// through step, checking after each that the engine's valid rules and
// candidate store equal those of a full re-mine of its relation.
func maintain(t *testing.T, rel *relation.Relation, cfg mining.Config, rounds int, step func(*incremental.Engine) error) {
	t.Helper()
	e, err := incremental.New(rel.Clone(), cfg, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		if err := step(e); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		full, err := mining.Mine(e.Relation(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		dict := e.Relation().Dictionary()
		if d := rules.Diff(e.Rules(), full.Rules, dict); len(d) != 0 {
			t.Fatalf("round %d (slack %v): rules: %d differences, first: %s", r, cfg.CandidateSlack, len(d), d[0])
		}
		if d := rules.Diff(e.Candidates(), full.Candidates, dict); len(d) != 0 {
			t.Fatalf("round %d (slack %v): candidates: %d differences, first: %s", r, cfg.CandidateSlack, len(d), d[0])
		}
	}
}

// addAnnotationBatch applies one generated Case 3 batch of m updates, a
// reinforce fraction of them completing planted rules.
func addAnnotationBatch(gen *workload.Generator, e *incremental.Engine, m int, reinforce float64) error {
	batch, err := gen.AnnotationBatch(e.Relation(), m, reinforce)
	if err != nil {
		return err
	}
	_, err = e.AddAnnotations(batch)
	return err
}

// sampleRemovals picks up to m existing attachments, at most one per tuple,
// from every stride-th tuple, where the stride varies with round.
func sampleRemovals(rel *relation.Relation, m, round int) []relation.AnnotationUpdate {
	var batch []relation.AnnotationUpdate
	stride := round%3 + 1
	rel.Each(func(i int, tu relation.Tuple) bool {
		if i%stride == 0 && len(tu.Annots) > 0 {
			batch = append(batch, relation.AnnotationUpdate{Index: i, Annotation: tu.Annots[0]})
		}
		return len(batch) < m
	})
	return batch
}
