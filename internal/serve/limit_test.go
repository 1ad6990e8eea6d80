package serve

import (
	"testing"

	"annotadb/internal/predict"
	"annotadb/internal/relation"
)

// limitFixture yields exactly three recommendations for tuple 8: v1 implies
// Annot_a, Annot_b, and Annot_c at confidence 0.8 and support 0.8, and
// tuples 8 and 9 carry v1 with no annotations.
func limitFixture() *relation.Relation {
	rows := make([][]string, 0, 10)
	annots := make([][]string, 0, 10)
	for i := 0; i < 8; i++ {
		rows = append(rows, []string{"v1"})
		annots = append(annots, []string{"Annot_a", "Annot_b", "Annot_c"})
	}
	rows = append(rows, []string{"v1"}, []string{"v1"})
	annots = append(annots, nil, nil)
	return relation.FromTokens(rows, annots)
}

// TestRecommendLimitEdgeCases pins the serving core's Limit contract at its
// edges: zero and negative limits are unbounded, a limit beyond the result
// set returns everything, and a binding limit returns the deterministic
// prefix of the unbounded order.
func TestRecommendLimitEdgeCases(t *testing.T) {
	t.Parallel()
	baselineSrv, _ := mustServer(t, limitFixture(), testCfg(), Config{BatchWindow: -1})
	baseline, _, err := baselineSrv.Recommend(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 3 {
		t.Fatalf("unbounded baseline has %d recommendations, want 3", len(baseline))
	}
	cases := []struct {
		name  string
		limit int
		want  int
	}{
		{"zero is unbounded", 0, 3},
		{"negative is unbounded", -5, 3},
		{"beyond the result set", 100, 3},
		{"binding", 2, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, _ := mustServer(t, limitFixture(), testCfg(), Config{
				BatchWindow: -1,
				Recommend:   predict.Options{Limit: tc.limit},
			})
			recs, _, err := s.Recommend(8)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != tc.want {
				t.Fatalf("Limit %d returned %d recommendations, want %d", tc.limit, len(recs), tc.want)
			}
			// A binding limit keeps the prefix of the unbounded order.
			for i, r := range recs {
				if r.Annotation != baseline[i].Annotation {
					t.Errorf("recommendation %d = %v, want baseline prefix %v", i, r.Annotation, baseline[i].Annotation)
				}
			}
			// The incoming-tuple path obeys the same limit.
			tu, err := s.Snapshot().View.Tuple(8)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(s.Snapshot().Compiled.ForTuple(tu)); got != tc.want {
				t.Errorf("incoming tuple with Limit %d drew %d recommendations, want %d", tc.limit, got, tc.want)
			}
		})
	}
}
