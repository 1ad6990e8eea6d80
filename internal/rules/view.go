package rules

// View is an immutable snapshot of a rule set. Unlike *Set, a View is safe
// to share across goroutines without synchronization: it is built once by
// Freeze and never mutated afterwards. The serving layer publishes Views
// through an atomic pointer so that readers never touch the maintenance
// engine's lock.
type View struct {
	sorted []Rule
	byID   map[RuleID]Rule
}

// emptyView backs Freeze(nil) and EmptyView so callers never handle nil.
var emptyView = &View{byID: map[RuleID]Rule{}}

// EmptyView returns the canonical empty view.
func EmptyView() *View { return emptyView }

// Freeze copies the set into an immutable View. The receiver may keep being
// mutated afterwards; the View is unaffected. Freeze(nil) and freezing an
// empty set both return the canonical empty view.
func (s *Set) Freeze() *View {
	if s == nil || len(s.byID) == 0 {
		return emptyView
	}
	v := &View{
		sorted: s.Sorted(),
		byID:   make(map[RuleID]Rule, len(s.byID)),
	}
	for id, r := range s.byID {
		v.byID[id] = r
	}
	return v
}

// Len returns the number of rules.
func (v *View) Len() int { return len(v.sorted) }

// Get returns the rule with the given identity.
func (v *View) Get(id RuleID) (Rule, bool) {
	r, ok := v.byID[id]
	return r, ok
}

// Has reports whether a rule with the given identity is present.
func (v *View) Has(id RuleID) bool {
	_, ok := v.byID[id]
	return ok
}

// EachRule visits rules in the deterministic Sorted order; fn returning
// false stops the walk.
func (v *View) EachRule(fn func(Rule) bool) {
	for _, r := range v.sorted {
		if !fn(r) {
			return
		}
	}
}

// Sorted returns the rules in deterministic order. The slice is shared with
// the view; callers must not modify it. Use Thaw for a mutable copy.
func (v *View) Sorted() []Rule { return v.sorted }

// Thaw returns a fresh mutable Set holding the view's rules.
func (v *View) Thaw() *Set {
	s := NewSet()
	for id, r := range v.byID {
		s.byID[id] = r
	}
	return s
}
