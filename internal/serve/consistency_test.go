package serve

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// TestGenerationConsistencyUnderHammer is the regression test for the torn
// read this package used to permit: Recommend read the tuple live from the
// relation while evaluating rules from an older published snapshot, so a
// reader could observe a tuple annotated (or stripped) AFTER the rules it
// was scored against.
//
// Construction: 8 tuples all carrying data value d; Annot_X is attached to
// tuples 0..6 permanently and toggled on tuple 7 by a hammering writer. At
// minSupport = minConfidence = 0.95 over N = 8, the rule d ⇒ Annot_X is
// valid exactly when all 8 tuples carry Annot_X (8/8 = 1.0 ≥ 0.95; 7/8 =
// 0.875 < 0.95). Therefore, in any single published generation:
//
//   - the rule exists  ⇔  tuple 7 carries Annot_X  ⇔  Recommend(7) has
//     nothing to recommend (the annotation is already present);
//   - the rule is absent ⇒ Recommend(7) has nothing to recommend either.
//
// So a recommendation of Annot_X for tuple 7 is impossible in a consistent
// generation — it can only arise from pairing the rule set of one
// generation with tuple contents of another. Under the pre-view live-read
// path this fired readily (live tuple just stripped + snapshot rules still
// holding the rule); against the published-view path it must never fire.
func TestGenerationConsistencyUnderHammer(t *testing.T) {
	rel := relation.New()
	dict := rel.Dictionary()
	x := relation.MustAnnotation(dict, "Annot_X")
	for i := 0; i < 8; i++ {
		rel.Append(relation.MustTuple(dict, []string{"d"}, []string{"Annot_X"}))
	}
	mcfg := mining.Config{MinSupport: 0.95, MinConfidence: 0.95}
	s, eng := mustServer(t, rel, mcfg, Config{BatchWindow: -1})
	if s.Snapshot().Rules.Len() == 0 {
		t.Fatal("fixture mined no rules; the consistency property would be vacuous")
	}

	const toggles = 4000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 8)
	report := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}
	wg.Add(1)
	go func() { // hammering annotator: strip and re-attach Annot_X on tuple 7
		defer wg.Done()
		defer close(stop)
		ctx := context.Background()
		for i := 0; i < toggles; i++ {
			if _, err := s.RemoveAnnotations(ctx, []relation.AnnotationUpdate{{Index: 7, Annotation: x}}); err != nil {
				report("remove: " + err.Error())
				return
			}
			if _, err := s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: 7, Annotation: x}}); err != nil {
				report("add: " + err.Error())
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The serving API: tuple and rules must pair.
				recs, seq, err := s.Recommend(7)
				if err != nil {
					report("recommend: " + err.Error())
					return
				}
				for _, rec := range recs {
					if rec.Annotation == x {
						report("torn read: Recommend proposed Annot_X for tuple 7 " +
							"(rule set and tuple contents came from different generations), seq " +
							strconv.FormatUint(seq, 10))
						return
					}
				}
				// The snapshot itself: the rule d⇒X exists iff this
				// generation's tuple 7 carries X.
				snap := s.Snapshot()
				tu, err := snap.View.Tuple(7)
				if err != nil {
					report("snapshot tuple: " + err.Error())
					return
				}
				hasAnnot := tu.HasAnnotation(x)
				hasRule := false
				snap.Rules.EachRule(func(rl rules.Rule) bool {
					if rl.RHS == x {
						hasRule = true
						return false
					}
					return true
				})
				if hasRule != hasAnnot {
					report("torn snapshot: rule presence and tuple contents disagree within one Seq")
					return
				}
				if snap.RelVersion != snap.View.Version() {
					report("snapshot RelVersion does not match its own view's version")
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("consistency hammer timed out")
	}
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRecommendServesPublishedGenerationOnly pins the structural property
// behind the lock-free read contract: Recommend answers entirely from the
// published snapshot's pinned view. Even when the live relation is ahead of
// the snapshot — exactly the state between a batch apply and its publish —
// the served tuple contents come from the published generation, not the
// live store.
func TestRecommendServesPublishedGenerationOnly(t *testing.T) {
	rel := fixture()
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: -1})

	a1 := relation.MustAnnotation(rel.Dictionary(), "Annot_1")
	before := s.Snapshot()
	// Mutate the relation directly (bypassing the server) so the live
	// relation is newer than the published snapshot. This is exactly the
	// state between a batch apply and its publish.
	if err := rel.AddAnnotation(5, a1); err != nil {
		t.Fatal(err)
	}
	recs, seq, err := s.Recommend(5)
	if err != nil {
		t.Fatal(err)
	}
	if seq != before.Seq {
		t.Fatalf("Recommend served from seq %d, want the published %d", seq, before.Seq)
	}
	// The snapshot's view must not see the unpublished live mutation.
	tu, err := before.View.Tuple(5)
	if err != nil {
		t.Fatal(err)
	}
	if tu.HasAnnotation(a1) {
		t.Fatal("published view observed an unpublished live mutation")
	}
	// Recommendations were computed against that stale-but-consistent
	// generation, where tuple 5 does not carry Annot_1 yet — so the strong
	// {28,85}⇒Annot_1 family may legitimately propose it; with a live read
	// the already-attached annotation would have been suppressed.
	_ = recs
	if rel.Version() == before.RelVersion {
		t.Fatal("test did not actually advance the live relation")
	}
}
