package predict

import (
	"slices"

	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// Compiled is an immutable recommendation evaluator: the rules of one rule
// view that Options allow, filtered once and kept in the view's order. The
// rule backing each recommendation is chosen by outranks, a total order, so
// the order rules are visited in never changes an answer. Compiling once and
// evaluating many times moves the filter off the per-request path; a
// Compiled value is safe for concurrent use.
type Compiled struct {
	opts     Options
	eligible []rules.Rule
}

// Compile keeps the rules of v that opts allows.
func Compile(v *rules.View, opts Options) *Compiled {
	eligible := make([]rules.Rule, 0, v.Len())
	for _, r := range v.Sorted() {
		if opts.ruleAllowed(r) {
			eligible = append(eligible, r)
		}
	}
	return &Compiled{opts: opts, eligible: eligible}
}

// ForTuple evaluates a free-standing tuple; returned recommendations use
// TupleIndex -1. See ForTupleAt for tuples that live in a relation.
func (c *Compiled) ForTuple(tu relation.Tuple) []Recommendation {
	return c.ForTupleAt(tu, -1)
}

// ForTupleAt evaluates one tuple, stamping idx into the recommendations,
// which are ordered by annotation.
func (c *Compiled) ForTupleAt(tu relation.Tuple, idx int) []Recommendation {
	return c.limit(c.appendTuple(nil, tu, idx))
}

// ScanRange scans tuple positions [start, end) of src against the compiled
// rules: the paper's missing-annotation scan over the whole relation, and
// its insert trigger over a freshly appended batch. Recommendations are
// ordered by tuple position, then annotation. src is any read-only relation
// face: the live *relation.Relation (locked reads) or an immutable
// *relation.View (lock-free reads from a published generation).
func (c *Compiled) ScanRange(src relation.Source, start, end int) []Recommendation {
	start, end = max(start, 0), min(end, src.Len())
	if start >= end {
		return nil
	}
	var out []Recommendation
	src.EachFrom(start, func(i int, tu relation.Tuple) bool {
		if i >= end {
			return false
		}
		out = c.appendTuple(out, tu, i)
		return c.opts.Limit <= 0 || len(out) < c.opts.Limit
	})
	return c.limit(out)
}

// appendTuple appends tu's recommendations to out, ordered by annotation:
// one for each annotation tu lacks whose rules' LHS tu contains, backed by
// the rule that outranks the others.
func (c *Compiled) appendTuple(out []Recommendation, tu relation.Tuple, idx int) []Recommendation {
	base := len(out)
	for _, r := range c.eligible {
		if tu.Annots.Contains(r.RHS) || !tu.Contains(r.LHS) {
			continue
		}
		j := base
		for j < len(out) && out[j].Annotation < r.RHS {
			j++
		}
		if j < len(out) && out[j].Annotation == r.RHS {
			if outranks(r, out[j].Rule) {
				out[j].Rule = r
			}
			continue
		}
		out = slices.Insert(out, j, Recommendation{TupleIndex: idx, Annotation: r.RHS, Rule: r})
	}
	return out
}

func (c *Compiled) limit(recs []Recommendation) []Recommendation {
	if c.opts.Limit > 0 && len(recs) > c.opts.Limit {
		return recs[:c.opts.Limit]
	}
	return recs
}

// outranks reports whether a should back a recommendation rather than b,
// two rules with one RHS: higher confidence wins, then higher support, then
// the shorter (more general) LHS, then the smaller LHS. Distinct rules with
// one RHS differ in LHS, so this is a total order.
func outranks(a, b rules.Rule) bool {
	if a.Confidence() != b.Confidence() {
		return a.Confidence() > b.Confidence()
	}
	if a.Support() != b.Support() {
		return a.Support() > b.Support()
	}
	return a.LHS.Compare(b.LHS) < 0 // by length first, then by item
}
