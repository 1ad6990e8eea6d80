// Package bench defines the experiment harness that regenerates the paper's
// evaluation artifacts (experiments E1–E10, plus E11 for the paper's §6
// removal extension). Each experiment produces a table in the shape of the
// corresponding paper figure; absolute timings differ from the paper's 2015
// Java implementation, but the comparisons — who wins, by what factor, where
// growth explodes — are the reproduction targets.
//
// The harness is used by cmd/annotbench (pretty tables) and smoke-tested
// in-package; the matching testing.B microbenchmarks live in the repository
// root's bench_test.go.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"annotadb/internal/generalize"
	"annotadb/internal/incremental"
	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/predict"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
	"annotadb/internal/workload"
)

// Result is one experiment's rendered outcome.
type Result struct {
	ID     string
	Title  string
	Anchor string // the paper figure/section reproduced
	Header []string
	Rows   [][]string
	Notes  []string
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID     string
	Title  string
	Anchor string
	Run    func(p Params) (*Result, error)
}

// Params scale the experiments. Full() matches the paper's evaluation
// (≈8000 tuples); Quick() shrinks everything for smoke tests.
type Params struct {
	BaseTuples  int
	BatchSizes  []int
	Repeats     int
	Seed        int64
	MinSupport  float64
	MinConf     float64
	SupportGrid []float64
}

// Full returns the paper-scale parameters: the ≈8000-entry dataset and the
// conservative thresholds (support 0.4, confidence 0.8) of §4.3.
func Full() Params {
	return Params{
		BaseTuples:  8000,
		BatchSizes:  []int{50, 200, 800},
		Repeats:     5,
		Seed:        1,
		MinSupport:  0.4,
		MinConf:     0.8,
		SupportGrid: []float64{0.5, 0.4, 0.3, 0.2, 0.15, 0.1},
	}
}

// Quick returns smoke-test parameters.
func Quick() Params {
	return Params{
		BaseTuples:  400,
		BatchSizes:  []int{10, 40},
		Repeats:     2,
		Seed:        1,
		MinSupport:  0.4,
		MinConf:     0.8,
		SupportGrid: []float64{0.5, 0.4, 0.3},
	}
}

func (p Params) spec() workload.Spec {
	spec := workload.Default8K(p.Seed)
	spec.Tuples = p.BaseTuples
	return spec
}

func (p Params) miningConfig() mining.Config {
	return mining.Config{MinSupport: p.MinSupport, MinConfidence: p.MinConf}
}

// All returns the experiment registry in run order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Run time: full Apriori re-mine vs incremental maintenance (Case 3)", Anchor: "Figure 16", Run: runE1},
		{ID: "E2", Title: "Apriori run time vs minimum support", Anchor: "§4.3 Results", Run: runE2},
		{ID: "E3", Title: "Case 1 (annotated tuples): incremental vs re-mine, identical output", Anchor: "§4.3 Case 1 Results", Run: runE3},
		{ID: "E4", Title: "Case 2 (un-annotated tuples): incremental vs re-mine, identical output", Anchor: "§4.3 Case 2 Results", Run: runE4},
		{ID: "E5", Title: "Case 3 (new annotations): incremental vs re-mine, identical output", Anchor: "§4.3 Case 3 Results", Run: runE5},
		{ID: "E6", Title: "Direction of support/confidence change per update case", Anchor: "Figure 11", Run: runE6},
		{ID: "E7", Title: "Exploitation: recovering withheld annotations", Anchor: "§5 / Figure 17", Run: runE7},
		{ID: "E8", Title: "Generalization reveals concept-level rules", Anchor: "§4.1 / Figures 8-10", Run: runE8},
		{ID: "E9", Title: "Ablation: candidate store (slack pool) on vs off", Anchor: "§4.3 candidate rules", Run: runE9},
		{ID: "E10", Title: "Miner choice: bitmap Apriori vs FP-Growth", Anchor: "Figure 3 / §4", Run: runE10},
		{ID: "E11", Title: "Extension: incremental annotation removal (paper's §6 future work)", Anchor: "§6", Run: runE11},
	}
}

// runE11 exercises the future-work extension: removal batches maintained
// incrementally vs re-mining, with the identical-output check.
func runE11(p Params) (*Result, error) {
	gen, rel, err := buildBase(p)
	if err != nil {
		return nil, err
	}
	cfg := p.miningConfig()
	res := &Result{Header: []string{"batch (removals)", "incremental", "full re-mine", "speedup", "promoted", "identical"}}
	for _, m := range p.BatchSizes {
		eng, err := incremental.New(rel.Clone(), cfg, incremental.Options{})
		if err != nil {
			return nil, err
		}
		// Warm with one add batch so removals have something to undo and
		// the engine is in steady state.
		warm, err := gen.AnnotationBatch(eng.Relation(), m, 0.6)
		if err != nil {
			return nil, err
		}
		if _, err := eng.AddAnnotations(warm); err != nil {
			return nil, err
		}
		var incTotal, fullTotal time.Duration
		identical := true
		promoted := 0
		for r := 0; r < p.Repeats; r++ {
			batch := sampleRemovals(eng.Relation(), m, int64(r))
			if len(batch) == 0 {
				continue
			}
			d, err := timeIt(func() error {
				rep, e := eng.RemoveAnnotations(batch)
				if e == nil {
					promoted += rep.Promoted
				}
				return e
			})
			if err != nil {
				return nil, err
			}
			incTotal += d
			full, fd, err := remine(eng.Relation(), cfg)
			if err != nil {
				return nil, err
			}
			fullTotal += fd
			if diff := rules.Diff(eng.Rules(), full.Rules, nil); len(diff) != 0 {
				identical = false
			}
		}
		incMean := incTotal / time.Duration(p.Repeats)
		fullMean := fullTotal / time.Duration(p.Repeats)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", m),
			ms(incMean), ms(fullMean),
			fmt.Sprintf("%.1fx", float64(fullMean)/float64(maxDuration(incMean, time.Nanosecond))),
			fmt.Sprintf("%d", promoted),
			fmt.Sprintf("%v", identical),
		})
	}
	res.Notes = append(res.Notes,
		"the paper (§6): 'the implementation of a system for handling such removals would likely be quite similar to the current updating and discovery of rules' — confirmed: Case 3 run in reverse, with confidence able to rise")
	return res, nil
}

// sampleRemovals picks existing attachments deterministically.
func sampleRemovals(rel *relation.Relation, m int, seed int64) []relation.AnnotationUpdate {
	var batch []relation.AnnotationUpdate
	stride := int(seed)%3 + 1
	rel.Each(func(i int, tu relation.Tuple) bool {
		if i%stride != 0 {
			return true
		}
		for _, a := range tu.Annots {
			batch = append(batch, relation.AnnotationUpdate{Index: i, Annotation: a})
			break // at most one per tuple keeps removals spread out
		}
		return len(batch) < m
	})
	return batch
}

// Render writes the result as an aligned text table.
func Render(w io.Writer, r *Result) error {
	if _, err := fmt.Fprintf(w, "%s — %s (reproduces %s)\n", r.ID, r.Title, r.Anchor); err != nil {
		return err
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return "  " + strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(r.Header)); err != nil {
		return err
	}
	total := 2
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, "  "+strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f ms", float64(d.Microseconds())/1000.0)
}

// timeIt returns the wall time of fn.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// buildBase generates the base relation for an experiment.
func buildBase(p Params) (*workload.Generator, *relation.Relation, error) {
	gen, err := workload.NewGenerator(p.spec())
	if err != nil {
		return nil, nil, err
	}
	rel, err := gen.Generate()
	if err != nil {
		return nil, nil, err
	}
	return gen, rel, nil
}

// remine runs a full mining pass, the Figure 16 baseline.
func remine(rel *relation.Relation, cfg mining.Config) (*mining.Result, time.Duration, error) {
	var res *mining.Result
	d, err := timeIt(func() error {
		var e error
		res, e = mining.Mine(rel, cfg)
		return e
	})
	return res, d, err
}

// runE1 reproduces Figure 16: per δ batch of new annotations, the cost of
// incremental update+discover vs re-running Apriori over the whole dataset.
func runE1(p Params) (*Result, error) {
	gen, rel, err := buildBase(p)
	if err != nil {
		return nil, err
	}
	cfg := p.miningConfig()
	res := &Result{
		Header: []string{"batch (annotations)", "incremental", "full re-mine", "speedup", "rules after", "identical"},
	}
	for _, m := range p.BatchSizes {
		eng, err := incremental.New(rel.Clone(), cfg, incremental.Options{})
		if err != nil {
			return nil, err
		}
		// Warm the engine with one unmeasured batch: a maintenance engine
		// is long-lived, so steady-state cost is the honest comparison
		// (the first-ever batch additionally pays one-time cache fills).
		warm, err := gen.AnnotationBatch(eng.Relation(), m, 0.6)
		if err != nil {
			return nil, err
		}
		if _, err := eng.AddAnnotations(warm); err != nil {
			return nil, err
		}
		var incTotal, fullTotal time.Duration
		identical := true
		for r := 0; r < p.Repeats; r++ {
			batch, err := gen.AnnotationBatch(eng.Relation(), m, 0.6)
			if err != nil {
				return nil, err
			}
			d, err := timeIt(func() error {
				_, e := eng.AddAnnotations(batch)
				return e
			})
			if err != nil {
				return nil, err
			}
			incTotal += d
			full, fd, err := remine(eng.Relation(), cfg)
			if err != nil {
				return nil, err
			}
			fullTotal += fd
			if diff := rules.Diff(eng.Rules(), full.Rules, nil); len(diff) != 0 {
				identical = false
			}
		}
		incMean := incTotal / time.Duration(p.Repeats)
		fullMean := fullTotal / time.Duration(p.Repeats)
		speedup := float64(fullMean) / float64(maxDuration(incMean, time.Nanosecond))
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", m),
			ms(incMean), ms(fullMean),
			fmt.Sprintf("%.1fx", speedup),
			fmt.Sprintf("%d", eng.Rules().Len()),
			fmt.Sprintf("%v", identical),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("base: %d tuples, min support %.2f, min confidence %.2f (the paper's conservative setting)", p.BaseTuples, p.MinSupport, p.MinConf),
		"paper: ≈12 s per full Apriori pass on ≈8000 entries vs 'significantly faster' incremental updates")
	return res, nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// runE2 reproduces the §4.3 remark that Apriori run time grows by magnitudes
// as the support threshold decreases.
func runE2(p Params) (*Result, error) {
	_, rel, err := buildBase(p)
	if err != nil {
		return nil, err
	}
	// Unmeasured warm-up pass so the first row does not absorb one-time
	// allocator and cache effects.
	if _, _, err := remine(rel, p.miningConfig()); err != nil {
		return nil, err
	}
	res := &Result{Header: []string{"min support", "time", "frequent patterns", "rules"}}
	base := time.Duration(0)
	for i, sup := range p.SupportGrid {
		cfg := p.miningConfig()
		cfg.MinSupport = sup
		out, d, err := remine(rel, cfg)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = d
		}
		growth := ""
		if base > 0 && i > 0 {
			growth = fmt.Sprintf(" (%.1fx of first row)", float64(d)/float64(base))
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.2f", sup),
			ms(d) + growth,
			fmt.Sprintf("%d", out.DataPatterns.Len()+out.AnnotPatterns.Len()),
			fmt.Sprintf("%d", out.Rules.Len()),
		})
	}
	res.Notes = append(res.Notes, "paper: 'As the support value decreases the run time of the apriori algorithm takes magnitudes longer'")
	return res, nil
}

// runCaseTuples shares the E3/E4 skeleton: append batches (annotated or
// not), compare incremental cost to re-mining, and assert identical output.
func runCaseTuples(p Params, annotated bool) (*Result, error) {
	gen, rel, err := buildBase(p)
	if err != nil {
		return nil, err
	}
	cfg := p.miningConfig()
	res := &Result{Header: []string{"batch (tuples)", "incremental", "full re-mine", "speedup", "identical"}}
	for _, m := range p.BatchSizes {
		eng, err := incremental.New(rel.Clone(), cfg, incremental.Options{})
		if err != nil {
			return nil, err
		}
		var incTotal, fullTotal time.Duration
		identical := true
		for r := 0; r < p.Repeats; r++ {
			var batch []relation.Tuple
			if annotated {
				batch, err = gen.AnnotatedTuples(eng.Relation().Dictionary(), m)
			} else {
				batch, err = gen.UnannotatedTuples(eng.Relation().Dictionary(), m)
			}
			if err != nil {
				return nil, err
			}
			d, err := timeIt(func() error {
				var e error
				if annotated {
					_, e = eng.AddAnnotatedTuples(batch)
				} else {
					_, e = eng.AddUnannotatedTuples(batch)
				}
				return e
			})
			if err != nil {
				return nil, err
			}
			incTotal += d
			full, fd, err := remine(eng.Relation(), cfg)
			if err != nil {
				return nil, err
			}
			fullTotal += fd
			if diff := rules.Diff(eng.Rules(), full.Rules, nil); len(diff) != 0 {
				identical = false
			}
		}
		incMean := incTotal / time.Duration(p.Repeats)
		fullMean := fullTotal / time.Duration(p.Repeats)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", m),
			ms(incMean), ms(fullMean),
			fmt.Sprintf("%.1fx", float64(fullMean)/float64(maxDuration(incMean, time.Nanosecond))),
			fmt.Sprintf("%v", identical),
		})
	}
	res.Notes = append(res.Notes, "paper verification: 'the association rules resulting from both processes were identical'")
	return res, nil
}

func runE3(p Params) (*Result, error) { return runCaseTuples(p, true) }
func runE4(p Params) (*Result, error) { return runCaseTuples(p, false) }

// runE5 re-runs the E1 workload but reports the equivalence columns the
// paper's per-case Results sections emphasize.
func runE5(p Params) (*Result, error) {
	gen, rel, err := buildBase(p)
	if err != nil {
		return nil, err
	}
	cfg := p.miningConfig()
	eng, err := incremental.New(rel, cfg, incremental.Options{})
	if err != nil {
		return nil, err
	}
	res := &Result{Header: []string{"round", "applied", "promoted", "demoted", "discovered", "identical"}}
	for r := 0; r < p.Repeats; r++ {
		batch, err := gen.AnnotationBatch(eng.Relation(), p.BatchSizes[0], 0.6)
		if err != nil {
			return nil, err
		}
		rep, err := eng.AddAnnotations(batch)
		if err != nil {
			return nil, err
		}
		identical := eng.Verify() == nil
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", r+1),
			fmt.Sprintf("%d", rep.Applied),
			fmt.Sprintf("%d", rep.Promoted),
			fmt.Sprintf("%d", rep.Demoted),
			fmt.Sprintf("%d", rep.Discovered),
			fmt.Sprintf("%v", identical),
		})
	}
	return res, nil
}

// runE6 reproduces the Figure 11 direction matrix empirically: after each
// update case, count tracked rules whose support/confidence rose, fell, or
// held, split by rule kind.
func runE6(p Params) (*Result, error) {
	gen, rel, err := buildBase(p)
	if err != nil {
		return nil, err
	}
	cfg := p.miningConfig()
	// Lower thresholds so plenty of rules exist to observe.
	cfg.MinSupport, cfg.MinConfidence = 0.2, 0.5

	type delta struct{ up, down, same int }
	observe := func(before, after *rules.Set, kind rules.Kind, stat func(rules.Rule) float64) delta {
		var d delta
		before.Each(func(old rules.Rule) bool {
			if old.Kind() != kind {
				return true
			}
			now, ok := after.Get(old.ID())
			if !ok {
				return true
			}
			const eps = 1e-12
			switch {
			case stat(now) > stat(old)+eps:
				d.up++
			case stat(now) < stat(old)-eps:
				d.down++
			default:
				d.same++
			}
			return true
		})
		return d
	}
	snapshot := func(e *incremental.Engine) *rules.Set {
		s := e.Rules()
		e.Candidates().Each(func(r rules.Rule) bool { s.Add(r); return true })
		return s
	}
	sup := func(r rules.Rule) float64 { return r.Support() }
	conf := func(r rules.Rule) float64 { return r.Confidence() }

	res := &Result{Header: []string{"update case", "rule kind", "stat", "up", "down", "same"}}
	addRows := func(label string, before, after *rules.Set) {
		for _, kind := range []rules.Kind{rules.DataToAnnotation, rules.AnnotationToAnnotation} {
			for _, st := range []struct {
				name string
				fn   func(rules.Rule) float64
			}{{"support", sup}, {"confidence", conf}} {
				d := observe(before, after, kind, st.fn)
				res.Rows = append(res.Rows, []string{
					label, kind.String(), st.name,
					fmt.Sprintf("%d", d.up), fmt.Sprintf("%d", d.down), fmt.Sprintf("%d", d.same),
				})
			}
		}
	}

	// Case 1.
	eng, err := incremental.New(rel.Clone(), cfg, incremental.Options{})
	if err != nil {
		return nil, err
	}
	before := snapshot(eng)
	batch1, err := gen.AnnotatedTuples(eng.Relation().Dictionary(), p.BatchSizes[0])
	if err != nil {
		return nil, err
	}
	if _, err := eng.AddAnnotatedTuples(batch1); err != nil {
		return nil, err
	}
	addRows("case 1: +annotated tuples", before, snapshot(eng))

	// Case 2.
	eng, err = incremental.New(rel.Clone(), cfg, incremental.Options{})
	if err != nil {
		return nil, err
	}
	before = snapshot(eng)
	batch2, err := gen.UnannotatedTuples(eng.Relation().Dictionary(), p.BatchSizes[0])
	if err != nil {
		return nil, err
	}
	if _, err := eng.AddUnannotatedTuples(batch2); err != nil {
		return nil, err
	}
	addRows("case 2: +un-annotated tuples", before, snapshot(eng))

	// Case 3.
	eng, err = incremental.New(rel.Clone(), cfg, incremental.Options{})
	if err != nil {
		return nil, err
	}
	before = snapshot(eng)
	batch3, err := gen.AnnotationBatch(eng.Relation(), p.BatchSizes[0], 0.6)
	if err != nil {
		return nil, err
	}
	if _, err := eng.AddAnnotations(batch3); err != nil {
		return nil, err
	}
	addRows("case 3: +annotations", before, snapshot(eng))

	res.Notes = append(res.Notes,
		"Figure 11 expectations: case 2 support/confidence only fall (A2A confidence unchanged); case 3 support/confidence of D2A rules only rise; A2A confidence may fall when the new annotation lands in a rule LHS")
	return res, nil
}

// runE7 reproduces §5: withhold a fraction of rule-implied annotations,
// mine, and measure how well the recommender recovers them.
func runE7(p Params) (*Result, error) {
	gen, err := workload.NewGenerator(p.spec())
	if err != nil {
		return nil, err
	}
	res := &Result{Header: []string{"withheld", "thresholds (α/β)", "recommendations", "precision", "recall", "F1", "scan time"}}
	for _, withhold := range []float64{0.1, 0.2, 0.3} {
		rel, truth, err := gen.GenerateWithWithholding(withhold)
		if err != nil {
			return nil, err
		}
		withheld := 0
		for _, set := range truth {
			withheld += set.Len()
		}
		// Two operating points: the paper's conservative thresholds, and a
		// relaxed pair. Withholding degrades the very rules used for
		// recovery (a rule whose consequents were withheld loses support
		// and confidence), so the relaxed point recovers much more.
		for _, th := range []struct{ sup, conf float64 }{
			{p.MinSupport, p.MinConf},
			{p.MinSupport * 0.75, p.MinConf * 0.85},
		} {
			cfg := p.miningConfig()
			cfg.MinSupport, cfg.MinConfidence = th.sup, th.conf
			out, err := mining.Mine(rel, cfg)
			if err != nil {
				return nil, err
			}
			rc := predict.NewRecommender(rel, predict.StaticRules{Set: out.Rules}, predict.Options{})
			var recs []predict.Recommendation
			d, err := timeIt(func() error {
				recs = rc.ScanAll()
				return nil
			})
			if err != nil {
				return nil, err
			}
			ev := predict.Evaluate(recs, truth)
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%.0f%% (%d)", withhold*100, withheld),
				fmt.Sprintf("%.2f/%.2f", th.sup, th.conf),
				fmt.Sprintf("%d", len(recs)),
				fmt.Sprintf("%.3f", ev.Precision()),
				fmt.Sprintf("%.3f", ev.Recall()),
				fmt.Sprintf("%.3f", ev.F1()),
				ms(d),
			})
		}
	}
	res.Notes = append(res.Notes,
		"each recommendation is justified by its supporting rule (support & confidence shown to curators)",
		"false positives are rule-consistent suggestions the generator never planted; the paper leaves acceptance to curators")
	return res, nil
}

// runE8 reproduces §4.1: raw annotations too scattered to clear thresholds
// become minable after generalization to concept labels.
func runE8(p Params) (*Result, error) {
	// Build a relation where variants split one concept's support.
	spec := p.spec()
	spec.Planted = nil
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	rel, err := gen.Generate()
	if err != nil {
		return nil, err
	}
	// Attach variant annotations Annot_inv_K to tuples containing a marker
	// value, round-robin so each variant alone is infrequent.
	dict := rel.Dictionary()
	marker, err := dict.InternData("28")
	if err != nil {
		return nil, err
	}
	variants := make([]itemset.Item, 4)
	for i := range variants {
		v, err := dict.InternAnnotation(fmt.Sprintf("Annot_inv_%d", i))
		if err != nil {
			return nil, err
		}
		variants[i] = v
	}
	// Append marker tuples deterministically: half the base size again,
	// each carrying the marker value, 90% of them one of the four variant
	// annotations in round-robin — so each variant alone sits near
	// 0.9/4 ≈ 22% of the marker population, below the 25% threshold, while
	// the concept label covers ≈90% of it.
	n := rel.Len()
	k := 0
	var batch []relation.AnnotationUpdate
	extra := n / 2
	for i := 0; i < extra; i++ {
		tu := relation.NewTuple(marker, itemset.DataItem(int(marker.ID())+1))
		pos := rel.Append(tu)
		if i%10 < 9 {
			batch = append(batch, relation.AnnotationUpdate{Index: pos, Annotation: variants[k%len(variants)]})
			k++
		}
	}
	if _, _, err := rel.ApplyUpdates(batch); err != nil {
		return nil, err
	}

	cfg := p.miningConfig()
	cfg.MinSupport, cfg.MinConfidence = 0.25, 0.6
	countVariantRules := func(out *mining.Result, target func(itemset.Item) bool) int {
		c := 0
		out.Rules.Each(func(r rules.Rule) bool {
			if target(r.RHS) {
				c++
			}
			return true
		})
		return c
	}
	isVariant := func(it itemset.Item) bool {
		for _, v := range variants {
			if it == v {
				return true
			}
		}
		return false
	}

	before, err := mining.Mine(rel, cfg)
	if err != nil {
		return nil, err
	}
	rawRules := countVariantRules(before, isVariant)

	// Generalize all variants to one label, Figure 9 style.
	genRules := []generalize.Rule{{
		Label:   "Annot_Invalidation",
		Sources: []string{"Annot_inv_0", "Annot_inv_1", "Annot_inv_2", "Annot_inv_3"},
	}}
	h, err := generalize.Build(genRules)
	if err != nil {
		return nil, err
	}
	applied, err := h.Apply(rel)
	if err != nil {
		return nil, err
	}
	after, err := mining.Mine(rel, cfg)
	if err != nil {
		return nil, err
	}
	label, _ := rel.Dictionary().Lookup("Annot_Invalidation")
	labelRules := countVariantRules(after, func(it itemset.Item) bool { return it == label })

	res := &Result{
		Header: []string{"level", "rules with variant/concept RHS"},
		Rows: [][]string{
			{"raw annotations (4 variants)", fmt.Sprintf("%d", rawRules)},
			{"generalized concept label", fmt.Sprintf("%d", labelRules)},
		},
		Notes: []string{
			fmt.Sprintf("labels attached: %d; thresholds support %.2f confidence %.2f", applied.Attached, cfg.MinSupport, cfg.MinConfidence),
			"paper: 'some rules may hold at the higher level(s) of the hierarchy which may not be true for the lower more-detailed levels'",
		},
	}
	return res, nil
}

// runE9 is the candidate-store ablation: the same Case 3 batches maintained
// with the slack pool enabled vs disabled.
func runE9(p Params) (*Result, error) {
	_, rel, err := buildBase(p)
	if err != nil {
		return nil, err
	}
	cfg := p.miningConfig()
	res := &Result{Header: []string{"variant", "mean update", "promoted", "discovered", "candidates held", "identical"}}
	for _, disabled := range []bool{false, true} {
		// A fresh same-seed generator per variant: both variants see the
		// exact same batch sequence, so the comparison is paired.
		gen, err := workload.NewGenerator(p.spec())
		if err != nil {
			return nil, err
		}
		vcfg := cfg
		if disabled {
			vcfg.CandidateSlack = 1
		}
		eng, err := incremental.New(rel.Clone(), vcfg, incremental.Options{})
		if err != nil {
			return nil, err
		}
		var total time.Duration
		promoted, discovered := 0, 0
		identical := true
		for r := 0; r < p.Repeats; r++ {
			batch, err := gen.AnnotationBatch(eng.Relation(), p.BatchSizes[0], 0.8)
			if err != nil {
				return nil, err
			}
			d, err := timeIt(func() error {
				rep, e := eng.AddAnnotations(batch)
				if e == nil {
					promoted += rep.Promoted
					discovered += rep.Discovered
				}
				return e
			})
			if err != nil {
				return nil, err
			}
			total += d
			if eng.Verify() != nil {
				identical = false
			}
		}
		name := "with candidate store (γ=0.8)"
		if disabled {
			name = "without candidate store (γ=1.0)"
		}
		res.Rows = append(res.Rows, []string{
			name,
			ms(total / time.Duration(p.Repeats)),
			fmt.Sprintf("%d", promoted),
			fmt.Sprintf("%d", discovered),
			fmt.Sprintf("%d", eng.Candidates().Len()),
			fmt.Sprintf("%v", identical),
		})
	}
	res.Notes = append(res.Notes,
		"results stay identical either way; the wider slack pool costs more per-batch maintenance",
		"this implementation's cold cache already memoizes below-threshold counts after first touch, so the paper's candidate store keeps its role as the described promotion mechanism but loses most of its raw performance advantage")
	return res, nil
}

// runE10 is the miner choice: bitmap Apriori against FP-Growth.
func runE10(p Params) (*Result, error) {
	_, rel, err := buildBase(p)
	if err != nil {
		return nil, err
	}
	res := &Result{Header: []string{"min support", "apriori (bitmap)", "fp-growth"}}
	for _, sup := range p.SupportGrid {
		row := []string{fmt.Sprintf("%.2f", sup)}
		for _, variant := range []mining.Config{
			{MinSupport: sup, MinConfidence: p.MinConf, Algorithm: mining.AlgorithmApriori},
			{MinSupport: sup, MinConfidence: p.MinConf, Algorithm: mining.AlgorithmFPGrowth},
		} {
			_, d, err := remine(rel, variant)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(d))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, "both miners produce identical rule sets (asserted by the mining package property tests)")
	return res, nil
}

// RunAll executes every experiment and renders results to w.
func RunAll(w io.Writer, p Params) error {
	for _, e := range All() {
		r, err := e.Run(p)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", e.ID, err)
		}
		r.ID, r.Title, r.Anchor = e.ID, e.Title, e.Anchor
		if err := Render(w, r); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes the experiment with the given ID.
func RunOne(w io.Writer, id string, p Params) error {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			r, err := e.Run(p)
			if err != nil {
				return fmt.Errorf("bench: %s: %w", e.ID, err)
			}
			r.ID, r.Title, r.Anchor = e.ID, e.Title, e.Anchor
			return Render(w, r)
		}
	}
	known := make([]string, 0)
	for _, e := range All() {
		known = append(known, e.ID)
	}
	sort.Strings(known)
	return fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
}
