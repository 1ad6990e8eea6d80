package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// The test world uses family-namespaced annotation tokens ("Annot_q:good"
// belongs to family "Annot_q"), with every planted correlation intra-family
// — the sharded contract — and noise kept far below the candidate slack
// threshold so no cross-family pattern can ever reach a tracked tier. That
// makes "merged sharded state == unsharded state" an exact property at
// every shard count.

func testCfg() mining.Config {
	return mining.Config{MinSupport: 0.3, MinConfidence: 0.7}
}

// worldTokens is the annotation vocabulary: three families, each with
// planted and noise members.
var worldAnnots = []string{
	"Annot_q:good", "Annot_q:review", "Annot_q:n1",
	"Annot_src:db1", "Annot_src:n1",
	"Annot_top:n1", "Annot_top:n2",
}

// worldTuple samples one annotated tuple. Planted correlations:
// {d1,d2} ⇒ Annot_q:good (≈.35/.9), Annot_q:good ⇒ Annot_q:review (≈.85),
// {d3} ⇒ Annot_src:db1 (≈.3/.85). Noise annotations ride at ≈.06 each, so
// cross-family co-occurrence (≈.1 at worst for the planted pair) stays well
// below the slack threshold .8·.3 = .24.
func worldTuple(rng *rand.Rand, annotated bool) ([]string, []string) {
	var data, annots []string
	if rng.Float64() < 0.35/0.9 {
		data = append(data, "d1", "d2")
		if annotated && rng.Float64() < 0.9 {
			annots = append(annots, "Annot_q:good")
			if rng.Float64() < 0.85 {
				annots = append(annots, "Annot_q:review")
			}
		}
	}
	if rng.Float64() < 0.3/0.85 {
		data = append(data, "d3")
		if annotated && rng.Float64() < 0.85 {
			annots = append(annots, "Annot_src:db1")
		}
	}
	for v := 0; v < 3; v++ {
		data = append(data, fmt.Sprintf("d%d", 4+rng.Intn(12)))
	}
	if annotated {
		for _, a := range worldAnnots {
			if rng.Float64() < 0.06 && !contains(annots, a) {
				annots = append(annots, a)
			}
		}
	}
	return dedup(data), annots
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func dedup(s []string) []string {
	seen := make(map[string]bool, len(s))
	out := s[:0]
	for _, x := range s {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// buildBase generates the deterministic base relation: tuples tuples, every
// annotation token appearing at least once (so removal steps never hit an
// unknown token).
func buildBase(seed int64, tuples int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := relation.New()
	dict := rel.Dictionary()
	var batch []relation.Tuple
	for i := 0; i < tuples; i++ {
		data, annots := worldTuple(rng, true)
		if i < len(worldAnnots) {
			// Pin coverage: the first few tuples each carry one vocabulary
			// annotation, so every token is interned in the base state.
			if !contains(annots, worldAnnots[i]) {
				annots = append(annots, worldAnnots[i])
			}
		}
		batch = append(batch, relation.MustTuple(dict, data, annots))
	}
	rel.Append(batch...)
	return rel
}

// stepKind enumerates the paper's update cases at the token level.
type stepKind uint8

const (
	stepAddAnnotations stepKind = iota
	stepRemoveAnnotations
	stepAddAnnotatedTuples
	stepAddUnannotatedTuples
)

type step struct {
	kind    stepKind
	updates []Update
	tuples  []TupleSpec
}

// generateSteps builds a deterministic mix of Case 1/2/3/removal batches.
// Annotation steps target base-relation indexes only, so any shuffle of the
// step order is applicable (appended tuples are never referenced by index).
func generateSteps(t testing.TB, base *relation.Relation, seed int64, n int) []step {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	baseLen := base.Len()
	dict := base.Dictionary()

	// Attachment pool for removals: (index, token) pairs present in the
	// base state.
	var pool []Update
	base.Each(func(i int, tu relation.Tuple) bool {
		for _, a := range tu.Annots {
			pool = append(pool, Update{Tuple: i, Annotation: dict.Token(a)})
		}
		return true
	})

	// reinforceTargets: base tuples containing {d1,d2} without Annot_q:good.
	d1, _ := dict.Lookup("d1")
	d2, _ := dict.Lookup("d2")
	qgood, _ := dict.Lookup("Annot_q:good")
	var reinforce []int
	base.Each(func(i int, tu relation.Tuple) bool {
		if tu.Data.Contains(d1) && tu.Data.Contains(d2) && !tu.Annots.Contains(qgood) {
			reinforce = append(reinforce, i)
		}
		return true
	})

	var steps []step
	for len(steps) < n {
		switch rng.Intn(4) {
		case 0: // Case 3: attach annotations
			var batch []Update
			for k := 0; k < 4+rng.Intn(6); k++ {
				if len(reinforce) > 0 && rng.Float64() < 0.4 {
					batch = append(batch, Update{Tuple: reinforce[rng.Intn(len(reinforce))], Annotation: "Annot_q:good"})
				} else {
					batch = append(batch, Update{
						Tuple:      rng.Intn(baseLen),
						Annotation: worldAnnots[rng.Intn(len(worldAnnots))],
					})
				}
			}
			steps = append(steps, step{kind: stepAddAnnotations, updates: batch})
		case 1: // removal
			var batch []Update
			for k := 0; k < 3+rng.Intn(4); k++ {
				batch = append(batch, pool[rng.Intn(len(pool))])
			}
			steps = append(steps, step{kind: stepRemoveAnnotations, updates: batch})
		case 2: // Case 1: annotated tuples
			var batch []TupleSpec
			for k := 0; k < 3+rng.Intn(4); k++ {
				data, annots := worldTuple(rng, true)
				batch = append(batch, TupleSpec{Values: data, Annotations: annots})
			}
			steps = append(steps, step{kind: stepAddAnnotatedTuples, tuples: batch})
		default: // Case 2: un-annotated tuples
			var batch []TupleSpec
			for k := 0; k < 3+rng.Intn(4); k++ {
				data, _ := worldTuple(rng, false)
				batch = append(batch, TupleSpec{Values: data})
			}
			steps = append(steps, step{kind: stepAddUnannotatedTuples, tuples: batch})
		}
	}
	return steps
}

// renderRuleKey flattens a token-form rule (counts included) into one
// comparable string.
func renderRuleKey(r rules.TokenRule) string {
	return fmt.Sprintf("%s|%s|%s|%d/%d/%d", r.Kind, strings.Join(r.LHS, ","), r.RHS, r.PatternCount, r.LHSCount, r.N)
}

// renderSet renders a rule set through its dictionary into sorted keys.
func renderSet(set *rules.Set, dict *relation.Dictionary) []string {
	var out []string
	set.Each(func(r rules.Rule) bool {
		out = append(out, renderRuleKey(rules.Render(dict, r)))
		return true
	})
	sort.Strings(out)
	return out
}

// mergedValid renders the router's merged valid tier; mergedCandidates the
// union of the per-shard candidate stores.
func mergedValid(r *Router) []string {
	rs, _ := r.Rules()
	out := make([]string, len(rs))
	for i, rl := range rs {
		out[i] = renderRuleKey(rl)
	}
	sort.Strings(out)
	return out
}

func mergedCandidates(r *Router) []string {
	var out []string
	for _, sh := range r.shards {
		out = append(out, renderSet(sh.eng.Candidates(), sh.dict)...)
	}
	sort.Strings(out)
	return out
}

// mustRouter builds a router over a fresh copy of the base world.
func mustRouter(t testing.TB, base *relation.Relation, n int, scfg Config) *Router {
	t.Helper()
	cfg := testCfg()
	scfg.Shards = n
	r, err := NewRouter(base, func(rel *relation.Relation) (*incremental.Engine, error) {
		return incremental.New(rel, cfg, incremental.Options{})
	}, scfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
