// Package predict implements the paper's exploitation of correlations (§5,
// Figure 17): using the discovered rules to (1) scan the database for
// missing annotations and (2) react to newly inserted tuple batches with
// trigger-style recommendations. In both cases "the system presents only a
// recommendation of which annotations to add. For each prediction, the
// supporting association rule is displayed along with its properties, e.g.,
// the support and confidence. Then it is up to the curators to make the
// final decision."
package predict

import (
	"fmt"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// Recommendation proposes attaching Annotation to the tuple at TupleIndex,
// justified by Rule. TupleIndex is -1 for free-standing tuples that are not
// yet part of the relation.
type Recommendation struct {
	TupleIndex int
	Annotation itemset.Item
	Rule       rules.Rule
}

// TokenRecommendation is a recommendation rendered to dictionary tokens:
// attach Annotation to the tuple at zero-based position Tuple (-1 for a
// tuple not yet inserted), justified by Rule. It is the one token-form
// recommendation type, served by the public API and — through its JSON tags
// — by GET /recommend as is.
type TokenRecommendation struct {
	Tuple      int             `json:"tuple"`
	Annotation string          `json:"annotation"`
	Rule       rules.TokenRule `json:"rule"`
}

// String renders the recommendation for curators, with the supporting
// rule's properties as the paper's Figure 17 prescribes.
func (r TokenRecommendation) String() string {
	target := "incoming tuple"
	if r.Tuple >= 0 {
		target = fmt.Sprintf("tuple %d", r.Tuple+1) // 1-based for humans, like Figure 14
	}
	return fmt.Sprintf("%s: add %s  [because %s]", target, r.Annotation, r.Rule)
}

// Render resolves recommendations against dict. The result is never nil, so
// an empty answer encodes as [] rather than null.
func Render(dict *relation.Dictionary, recs []Recommendation) []TokenRecommendation {
	out := make([]TokenRecommendation, len(recs))
	for i, r := range recs {
		out[i] = TokenRecommendation{
			Tuple:      r.TupleIndex,
			Annotation: dict.Token(r.Annotation),
			Rule:       rules.Render(dict, r.Rule),
		}
	}
	return out
}

// Options filter and bound recommendation output.
type Options struct {
	// MinConfidence additionally filters supporting rules beyond their
	// validity threshold; 0 keeps every valid rule.
	MinConfidence float64
	// MinSupport additionally filters supporting rules; 0 keeps all.
	MinSupport float64
	// ExcludeDerived suppresses recommendations of generalization labels,
	// which are system-derived and usually re-derived rather than curated.
	ExcludeDerived bool
	// Kinds restricts the supporting rule kinds; empty means both
	// data-to-annotation and annotation-to-annotation.
	Kinds []rules.Kind
	// Limit caps the number of recommendations returned; 0 is unbounded.
	Limit int
}

func (o Options) kindAllowed(k rules.Kind) bool {
	if len(o.Kinds) == 0 {
		return k == rules.DataToAnnotation || k == rules.AnnotationToAnnotation
	}
	for _, want := range o.Kinds {
		if k == want {
			return true
		}
	}
	return false
}

func (o Options) ruleAllowed(r rules.Rule) bool {
	if !o.kindAllowed(r.Kind()) {
		return false
	}
	if o.ExcludeDerived && r.RHS.IsDerived() {
		return false
	}
	// A zero (or negative) ratio filter keeps every rule, so the default
	// options skip the two divisions per rule on every publish.
	if o.MinConfidence > 0 && r.Confidence() < o.MinConfidence {
		return false
	}
	return o.MinSupport <= 0 || r.Support() >= o.MinSupport
}

// Evaluation scores recommendations against ground truth (experiment E7:
// annotations are withheld from the relation and the recommender must
// recover them).
type Evaluation struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// Precision returns TP / (TP + FP), or 0 when nothing was recommended.
func (e Evaluation) Precision() float64 {
	d := e.TruePositives + e.FalsePositives
	if d == 0 {
		return 0
	}
	return float64(e.TruePositives) / float64(d)
}

// Recall returns TP / (TP + FN), or 0 when nothing was withheld.
func (e Evaluation) Recall() float64 {
	d := e.TruePositives + e.FalseNegatives
	if d == 0 {
		return 0
	}
	return float64(e.TruePositives) / float64(d)
}

// F1 returns the harmonic mean of precision and recall.
func (e Evaluation) F1() float64 {
	p, r := e.Precision(), e.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Evaluate scores recs against truth, a map from tuple position to the
// itemset of annotations that were withheld there.
func Evaluate(recs []Recommendation, truth map[int]itemset.Itemset) Evaluation {
	var ev Evaluation
	recommended := make(map[int]itemset.Itemset)
	for _, r := range recs {
		recommended[r.TupleIndex] = recommended[r.TupleIndex].Add(r.Annotation)
	}
	for idx, recs := range recommended {
		want := truth[idx]
		for _, a := range recs {
			if want.Contains(a) {
				ev.TruePositives++
			} else {
				ev.FalsePositives++
			}
		}
	}
	for idx, want := range truth {
		got := recommended[idx]
		for _, a := range want {
			if !got.Contains(a) {
				ev.FalseNegatives++
			}
		}
	}
	return ev
}
