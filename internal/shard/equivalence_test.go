package shard

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
	"annotadb/internal/serve"
)

// refStack is the unsharded reference: one engine, one serving core.
type refStack struct {
	rel *relation.Relation
	eng *incremental.Engine
	srv *serve.Server
}

func newRef(t testing.TB, base *relation.Relation) *refStack {
	t.Helper()
	eng, err := incremental.New(base, testCfg(), incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(eng, serve.Config{BatchWindow: -1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("close ref: %v", err)
		}
	})
	return &refStack{rel: base, eng: eng, srv: srv}
}

func (rs *refStack) apply(t testing.TB, st step) {
	t.Helper()
	ctx := context.Background()
	dict := rs.rel.Dictionary()
	var err error
	switch st.kind {
	case stepAddAnnotations, stepRemoveAnnotations:
		updates := make([]relation.AnnotationUpdate, len(st.updates))
		for i, u := range st.updates {
			it, ierr := dict.InternAnnotation(u.Annotation)
			if ierr != nil {
				t.Fatal(ierr)
			}
			updates[i] = relation.AnnotationUpdate{Index: u.Tuple, Annotation: it}
		}
		if st.kind == stepAddAnnotations {
			_, err = rs.srv.AddAnnotations(ctx, updates)
		} else {
			_, err = rs.srv.RemoveAnnotations(ctx, updates)
		}
	default:
		tuples := make([]relation.Tuple, len(st.tuples))
		for i, spec := range st.tuples {
			tuples[i] = relation.MustTuple(dict, spec.Values, spec.Annotations)
		}
		_, err = rs.srv.AddTuples(ctx, tuples)
	}
	if err != nil {
		t.Fatalf("ref apply: %v", err)
	}
}

func applyRouter(t testing.TB, r *Router, st step) {
	t.Helper()
	ctx := context.Background()
	var err error
	switch st.kind {
	case stepAddAnnotations:
		_, err = r.AddAnnotations(ctx, st.updates)
	case stepRemoveAnnotations:
		_, err = r.RemoveAnnotations(ctx, st.updates)
	default:
		_, err = r.AddTuples(ctx, st.tuples)
	}
	if err != nil {
		t.Fatalf("router apply: %v", err)
	}
}

// refRecommendations renders every tuple's recommendations from the
// unsharded serving core.
func refRecommendations(t testing.TB, rs *refStack) []string {
	t.Helper()
	dict := rs.rel.Dictionary()
	n := rs.srv.Snapshot().N
	var out []string
	for idx := 0; idx < n; idx++ {
		recs, _, err := rs.srv.Recommend(idx)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			out = append(out, fmt.Sprintf("%d|%s|%s", rec.TupleIndex, dict.Token(rec.Annotation),
				renderRuleKey(rules.Render(dict, rec.Rule))))
		}
	}
	sort.Strings(out)
	return out
}

// routerRecommendations renders every tuple's merged recommendations.
func routerRecommendations(t testing.TB, r *Router) []string {
	t.Helper()
	n := r.Len()
	var out []string
	for idx := 0; idx < n; idx++ {
		recs, _, err := r.Recommend(idx)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			out = append(out, fmt.Sprintf("%d|%s|%s", rec.Tuple, rec.Annotation, renderRuleKey(rec.Rule)))
		}
	}
	sort.Strings(out)
	return out
}

// TestShardedEquivalenceProperty is the sharding exactness contract as a
// property: the same shuffled Case 1/2/3/removal workload run through
// N ∈ {1,2,4,8} family shards and through one unsharded engine must end in
// identical state — merged valid rules and candidate tiers (tokens AND raw
// integer counts), every tuple's recommendations, and the /stats attachment
// counters — and every shard must pass its own full re-mine verification.
// It extends the PR 1 shuffled-equivalence property across the partitioned
// write path; run under -race it also exercises the concurrent per-shard
// submission fan-out.
func TestShardedEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	const (
		seed      = 11
		baseSize  = 250
		stepCount = 24
	)
	base := buildBase(seed, baseSize)
	steps := generateSteps(t, base, seed+1, stepCount)

	for _, n := range []int{1, 2, 4, 8} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			// Each shard count gets its own shuffle of the same steps: the
			// property must hold for any order, not one blessed order.
			shuffled := append([]step(nil), steps...)
			rand.New(rand.NewSource(int64(100+n))).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})

			router := mustRouter(t, buildBase(seed, baseSize), n, Config{Serve: serve.Config{BatchWindow: -1}})
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := router.Close(ctx); err != nil {
					t.Errorf("close router: %v", err)
				}
			})
			ref := newRef(t, buildBase(seed, baseSize))

			for _, st := range shuffled {
				applyRouter(t, router, st)
				ref.apply(t, st)
			}

			// Per-shard exactness: every shard equals a full re-mine of its
			// own projection (invariants I1–I3 hold shard-locally).
			for s, eng := range router.Engines() {
				if err := eng.Verify(); err != nil {
					t.Fatalf("shard %d fails re-mine verification: %v", s, err)
				}
			}

			// Merged valid tier == unsharded valid tier, counts included.
			wantValid := renderSet(ref.eng.Rules(), ref.rel.Dictionary())
			if gotValid := mergedValid(router); !reflect.DeepEqual(gotValid, wantValid) {
				t.Errorf("merged valid rules diverge (%d vs %d):\ngot  %v\nwant %v",
					len(gotValid), len(wantValid), gotValid, wantValid)
			}
			if len(wantValid) == 0 {
				t.Fatal("reference mined no valid rules; the property would be vacuous")
			}

			// Merged candidate tier == unsharded candidate tier: the world
			// keeps every pattern that can reach the slack pool intra-family,
			// so even the near-miss tier partitions exactly.
			wantCands := renderSet(ref.eng.Candidates(), ref.rel.Dictionary())
			if gotCands := mergedCandidates(router); !reflect.DeepEqual(gotCands, wantCands) {
				t.Errorf("merged candidate tier diverges (%d vs %d):\ngot  %v\nwant %v",
					len(gotCands), len(wantCands), gotCands, wantCands)
			}

			// Every tuple's merged recommendations == the unsharded answers.
			if got, want := routerRecommendations(t, router), refRecommendations(t, ref); !reflect.DeepEqual(got, want) {
				t.Errorf("merged recommendations diverge (%d vs %d):\ngot  %v\nwant %v",
					len(got), len(want), got, want)
			}

			// The /stats surface: merged relation identity and attachment
			// counters match the unsharded snapshot's.
			refStats := ref.srv.Stats()
			st := router.Stats()
			if st.N != refStats.N {
				t.Errorf("merged N = %d, unsharded %d", st.N, refStats.N)
			}
			if st.Attachments != refStats.Attachments {
				t.Errorf("merged attachments = %d, unsharded %d", st.Attachments, refStats.Attachments)
			}
			if st.DistinctAnnotations != refStats.DistinctAnnotations {
				t.Errorf("merged distinct annotations = %d, unsharded %d", st.DistinctAnnotations, refStats.DistinctAnnotations)
			}
			if st.RuleCount != len(wantValid) {
				t.Errorf("merged rule count = %d, want %d", st.RuleCount, len(wantValid))
			}
		})
	}
}

// TestShardedConcurrentClientsConverge drives many concurrent client
// goroutines (each writing its own family plus shared appends) against a
// sharded router under -race, then asserts the quiesced state still passes
// per-shard re-mine verification and the replicas agree on length.
func TestShardedConcurrentClientsConverge(t *testing.T) {
	base := buildBase(3, 200)
	router := mustRouter(t, base, 4, Config{Serve: serve.Config{BatchWindow: 200 * time.Microsecond}})
	ctx := context.Background()

	const clients = 6
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			rng := rand.New(rand.NewSource(int64(300 + c)))
			for i := 0; i < 30; i++ {
				switch rng.Intn(5) {
				case 0:
					data, annots := worldTuple(rng, true)
					if _, err := router.AddTuples(ctx, []TupleSpec{{Values: data, Annotations: annots}}); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := router.RemoveAnnotations(ctx, []Update{{
						Tuple:      rng.Intn(200),
						Annotation: worldAnnots[rng.Intn(len(worldAnnots))],
					}}); err != nil {
						errs <- err
						return
					}
				default:
					if _, err := router.AddAnnotations(ctx, []Update{{
						Tuple:      rng.Intn(200),
						Annotation: worldAnnots[rng.Intn(len(worldAnnots))],
					}}); err != nil {
						errs <- err
						return
					}
				}
				// Interleave reads so snapshot merging runs under write load.
				if _, _, err := router.Recommend(rng.Intn(200)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := router.Close(cctx); err != nil {
		t.Fatal(err)
	}
	engines := router.Engines()
	for s, eng := range engines {
		if l := eng.Relation().Len(); l != engines[0].Relation().Len() {
			t.Fatalf("shard %d holds %d tuples, shard 0 holds %d", s, l, engines[0].Relation().Len())
		}
		if err := eng.Verify(); err != nil {
			t.Fatalf("shard %d fails re-mine verification after concurrent load: %v", s, err)
		}
	}
}
