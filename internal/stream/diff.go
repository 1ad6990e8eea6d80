package stream

import (
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// TierViews pairs one generation's rule tiers: the valid (served) set and
// the near-miss candidate pool.
type TierViews struct {
	Valid      *rules.View
	Candidates *rules.View
}

func (v TierViews) valid() *rules.View {
	if v.Valid == nil {
		return rules.EmptyView()
	}
	return v.Valid
}

func (v TierViews) candidates() *rules.View {
	if v.Candidates == nil {
		return rules.EmptyView()
	}
	return v.Candidates
}

// Diff computes the churn events between two generations of rule tiers, in
// a deterministic order (valid-tier events first, each tier walked in the
// rules package's sorted order). dict renders rule items to tokens.
//
// Semantics:
//
//   - a rule entering the valid tier is rule_promoted when the previous
//     generation held it as a candidate, rule_added otherwise;
//   - a rule leaving the valid tier is rule_demoted when the next generation
//     holds it as a candidate, rule_retired otherwise — both are valid-tier
//     events (they describe the served set; no mirror event is emitted on
//     the candidate tier);
//   - a rule present in the same tier on both sides emits
//     confidence_changed when its confidence counts (PatternCount,
//     LHSCount) differ — pure denominator drift (N growing under tuple
//     appends) is deliberately not an event, or /events would carry every
//     rule on every append;
//   - candidate-tier rule_added / rule_retired describe near-miss churn that
//     never touched the valid tier.
//
// Events carry no Cursor or Seq; the Broker stamps those at append time.
func Diff(prev, next TierViews, dict *relation.Dictionary) []Event {
	var out []Event
	pv, nv := prev.valid(), next.valid()
	pc, nc := prev.candidates(), next.candidates()

	for _, r := range nv.Sorted() {
		id := r.ID()
		if old, ok := pv.Get(id); ok {
			if old.PatternCount != r.PatternCount || old.LHSCount != r.LHSCount {
				out = append(out, ruleEvent(KindConfidenceChanged, TierValid, dict, &old, &r))
			}
			continue
		}
		if old, ok := pc.Get(id); ok {
			out = append(out, ruleEvent(KindPromoted, TierValid, dict, &old, &r))
			continue
		}
		out = append(out, ruleEvent(KindAdded, TierValid, dict, nil, &r))
	}
	for _, r := range pv.Sorted() {
		id := r.ID()
		if nv.Has(id) {
			continue
		}
		if cand, ok := nc.Get(id); ok {
			out = append(out, ruleEvent(KindDemoted, TierValid, dict, &r, &cand))
			continue
		}
		out = append(out, ruleEvent(KindRetired, TierValid, dict, &r, nil))
	}
	for _, r := range nc.Sorted() {
		id := r.ID()
		if old, ok := pc.Get(id); ok {
			if old.PatternCount != r.PatternCount || old.LHSCount != r.LHSCount {
				out = append(out, ruleEvent(KindConfidenceChanged, TierCandidate, dict, &old, &r))
			}
			continue
		}
		if pv.Has(id) {
			continue // the demotion was reported on the valid tier
		}
		out = append(out, ruleEvent(KindAdded, TierCandidate, dict, nil, &r))
	}
	for _, r := range pc.Sorted() {
		id := r.ID()
		if nc.Has(id) || nv.Has(id) {
			continue // still tracked (promotions were reported on the valid tier)
		}
		out = append(out, ruleEvent(KindRetired, TierCandidate, dict, &r, nil))
	}
	return out
}

func ruleEvent(kind Kind, tier Tier, dict *relation.Dictionary, old, cur *rules.Rule) Event {
	// Either side identifies the rule; prefer the surviving one.
	r := cur
	if r == nil {
		r = old
	}
	rhs := dict.Token(r.RHS)
	return Event{
		Kind:   kind,
		Tier:   tier,
		Family: relation.FamilyOf(rhs),
		LHS:    dict.Tokens(r.LHS),
		RHS:    rhs,
		Old:    newRuleStat(old),
		New:    newRuleStat(cur),
	}
}
