// Package generalize implements the paper's generalization-based
// correlations (§4.1, Figures 8–10): a rule file maps raw annotations onto
// concept labels ("annotations containing the words Invalid, wrong, or
// incorrect can all be generalized to the category of Invalidation"), the
// labels are appended to the tuples they apply to — at most once per tuple —
// and mining then runs over the extended annotated database, where rules may
// hold at a concept level that never reach threshold at the raw level.
//
// Labels may themselves appear as sources of other rules, giving the
// multi-level generalization hierarchy of Figure 8; application order is
// topological and cycles are rejected.
package generalize

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

// Rule is one generalization rule: any tuple carrying any of Sources
// receives Label. The paper's Figure 9 file format is
//
//	Annot_X : Annot_1, Annot_5
//
// meaning "every transaction that contains Annot_1 or Annot_5 will have the
// Annot_X label applied to it".
type Rule struct {
	Label   string
	Sources []string
}

// Validate rejects structurally broken rules.
func (r Rule) Validate() error {
	if r.Label == "" {
		return fmt.Errorf("generalize: rule with empty label")
	}
	if len(r.Sources) == 0 {
		return fmt.Errorf("generalize: rule %q has no sources", r.Label)
	}
	for _, s := range r.Sources {
		if s == "" {
			return fmt.Errorf("generalize: rule %q has an empty source", r.Label)
		}
		if s == r.Label {
			return fmt.Errorf("generalize: rule %q lists itself as a source", r.Label)
		}
	}
	return nil
}

// ParseError reports a malformed generalization-rule line.
type ParseError struct {
	Path string
	Line int
	Msg  string
}

// Error renders the location-prefixed message.
func (e *ParseError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("generalize: line %d: %s", e.Line, e.Msg)
	}
	return fmt.Sprintf("generalize: %s:%d: %s", e.Path, e.Line, e.Msg)
}

// Parse reads Figure 9-format rules. Blank lines and '#' comments are
// ignored; rules repeating a label merge their source lists.
func Parse(r io.Reader) ([]Rule, error) {
	return parse(r, "")
}

// ParseFile reads a Figure 9-format rule file.
func ParseFile(path string) ([]Rule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("generalize: open rules: %w", err)
	}
	defer f.Close()
	return parse(f, path)
}

func parse(r io.Reader, path string) ([]Rule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	byLabel := make(map[string]*Rule)
	var order []string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label, rest, ok := strings.Cut(line, ":")
		if !ok {
			return nil, &ParseError{Path: path, Line: lineNo, Msg: "expected Label : source, source, ..."}
		}
		label = strings.TrimSpace(label)
		if label == "" {
			return nil, &ParseError{Path: path, Line: lineNo, Msg: "empty label"}
		}
		var sources []string
		for _, s := range strings.Split(rest, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			sources = append(sources, s)
		}
		if len(sources) == 0 {
			return nil, &ParseError{Path: path, Line: lineNo, Msg: fmt.Sprintf("label %q has no sources", label)}
		}
		if existing, ok := byLabel[label]; ok {
			existing.Sources = append(existing.Sources, sources...)
		} else {
			byLabel[label] = &Rule{Label: label, Sources: sources}
			order = append(order, label)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("generalize: read rules: %w", err)
	}
	out := make([]Rule, 0, len(order))
	for _, label := range order {
		r := *byLabel[label]
		r.Sources = dedupe(r.Sources)
		if err := r.Validate(); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Write emits rules in Figure 9 format.
func Write(w io.Writer, rs []Rule) error {
	bw := bufio.NewWriter(w)
	for _, r := range rs {
		if _, err := fmt.Fprintf(bw, "%s : %s\n", r.Label, strings.Join(r.Sources, ", ")); err != nil {
			return fmt.Errorf("generalize: write rules: %w", err)
		}
	}
	return bw.Flush()
}

// Hierarchy is the resolved generalization DAG: labels ordered so that every
// label's sources (raw annotations or earlier labels) are resolved first.
type Hierarchy struct {
	rules   []Rule         // topological order
	depth   map[string]int // label → level (raw annotations are level 0)
	isLabel map[string]bool
}

// Build validates rules, resolves dependencies, and returns the hierarchy.
// It rejects cycles (for example A generalizes to B and B to A), which would
// make application order ambiguous.
func Build(rs []Rule) (*Hierarchy, error) {
	byLabel := make(map[string]*Rule, len(rs))
	for i := range rs {
		if err := rs[i].Validate(); err != nil {
			return nil, err
		}
		if _, dup := byLabel[rs[i].Label]; dup {
			return nil, fmt.Errorf("generalize: duplicate label %q (merge sources in the file instead)", rs[i].Label)
		}
		byLabel[rs[i].Label] = &rs[i]
	}
	h := &Hierarchy{
		depth:   make(map[string]int),
		isLabel: make(map[string]bool, len(rs)),
	}
	for label := range byLabel {
		h.isLabel[label] = true
	}
	// Depth-first resolution with cycle detection (colors: 0 white, 1 grey,
	// 2 black).
	color := make(map[string]int, len(rs))
	var order []Rule
	var visit func(label string, trail []string) error
	visit = func(label string, trail []string) error {
		switch color[label] {
		case 1:
			return fmt.Errorf("generalize: cycle through %q (%s)", label, strings.Join(append(trail, label), " -> "))
		case 2:
			return nil
		}
		color[label] = 1
		r := byLabel[label]
		maxSrc := 0
		for _, s := range r.Sources {
			if h.isLabel[s] {
				if err := visit(s, append(trail, label)); err != nil {
					return err
				}
				if d := h.depth[s]; d > maxSrc {
					maxSrc = d
				}
			}
		}
		color[label] = 2
		h.depth[label] = maxSrc + 1
		order = append(order, *r)
		return nil
	}
	// Deterministic outer order.
	labels := make([]string, 0, len(byLabel))
	for label := range byLabel {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		if err := visit(label, nil); err != nil {
			return nil, err
		}
	}
	h.rules = order
	return h, nil
}

// Rules returns the rules in application (topological) order.
func (h *Hierarchy) Rules() []Rule { return h.rules }

// Depth returns the level of a label: 1 for labels over raw annotations
// only, growing by one per generalization layer. Unknown labels return 0.
func (h *Hierarchy) Depth(label string) int { return h.depth[label] }

// MaxDepth returns the height of the hierarchy.
func (h *Hierarchy) MaxDepth() int {
	max := 0
	for _, d := range h.depth {
		if d > max {
			max = d
		}
	}
	return max
}

// LabelsAtDepth returns the labels at a given level, sorted.
func (h *Hierarchy) LabelsAtDepth(d int) []string {
	var out []string
	for label, depth := range h.depth {
		if depth == d {
			out = append(out, label)
		}
	}
	sort.Strings(out)
	return out
}

// IsLabel reports whether token is a generalization label in this hierarchy.
func (h *Hierarchy) IsLabel(token string) bool { return h.isLabel[token] }

// Result summarizes one Apply pass.
type Result struct {
	// Attached counts (tuple, label) attachments added by this pass.
	Attached int
	// PerLabel breaks Attached down by label token.
	PerLabel map[string]int
	// UnknownSources lists source tokens that matched no annotation in the
	// relation (informational: rules may reference annotations that have
	// not arrived yet).
	UnknownSources []string
}

// PlanUpdates computes, without mutating rel, the annotation updates that
// Apply would perform: one (position, label) attachment per qualifying tuple
// per label, in topological label order. Multi-level rules are resolved
// against a virtual overlay, so a level-2 label sees the level-1 labels the
// same plan attaches. The plan is suitable both for relation.ApplyUpdates
// (what Apply does) and for incremental.Engine.AddAnnotations, which keeps
// mined rules synchronized with the extension of the database (§4.1).
//
// The returned result counts planned attachments; already-present labels are
// not planned, making the plan — and hence Apply — idempotent.
func (h *Hierarchy) PlanUpdates(rel *relation.Relation) (plan []relation.AnnotationUpdate, res *Result, err error) {
	// One consistent generation for the whole plan; the plan keeps none of
	// its memory, so a scoped read leaves the relation unsealed.
	rel.Read(func(view *relation.View) { plan, res, err = h.plan(view) })
	return plan, res, err
}

// plan is PlanUpdates over one captured generation.
func (h *Hierarchy) plan(view *relation.View) ([]relation.AnnotationUpdate, *Result, error) {
	dict := view.Dictionary()
	res := &Result{PerLabel: make(map[string]int)}
	unknown := make(map[string]bool)
	var plan []relation.AnnotationUpdate
	// overlay[pos] holds labels planned for the tuple at pos so far.
	overlay := make(map[int]itemset.Itemset)

	for _, r := range h.rules {
		labelItem, err := dict.InternDerived(r.Label)
		if err != nil {
			return nil, nil, fmt.Errorf("generalize: label %q: %w", r.Label, err)
		}
		// Resolve sources. A source that is itself a label must already be
		// interned (topological order guarantees its rule ran first); raw
		// sources may be unknown, which only means no tuple carries them.
		var sources []itemset.Item
		for _, s := range r.Sources {
			if it, ok := dict.Lookup(s); ok {
				if !it.IsAnnotation() {
					return nil, nil, fmt.Errorf("generalize: source %q of label %q is a data value, not an annotation", s, r.Label)
				}
				sources = append(sources, it)
				continue
			}
			if h.isLabel[s] {
				return nil, nil, fmt.Errorf("generalize: label source %q of %q not interned after topological application", s, r.Label)
			}
			unknown[s] = true
		}
		if len(sources) == 0 {
			continue
		}
		positions := make(map[int]bool)
		for _, src := range sources {
			// Real attachments, via the annotation index...
			view.Postings(src).Each(func(pos int) bool {
				positions[pos] = true
				return true
			})
			// ...and attachments planned earlier in this same plan.
			if src.IsDerived() {
				for pos, labels := range overlay {
					if labels.Contains(src) {
						positions[pos] = true
					}
				}
			}
		}
		if len(positions) == 0 {
			continue
		}
		ordered := make([]int, 0, len(positions))
		for pos := range positions {
			ordered = append(ordered, pos)
		}
		sort.Ints(ordered)
		for _, pos := range ordered {
			tu, err := view.Tuple(pos)
			if err != nil {
				return nil, nil, fmt.Errorf("generalize: plan label %q: %w", r.Label, err)
			}
			if tu.Annots.Contains(labelItem) || overlay[pos].Contains(labelItem) {
				continue
			}
			plan = append(plan, relation.AnnotationUpdate{Index: pos, Annotation: labelItem})
			overlay[pos] = overlay[pos].Add(labelItem)
			res.Attached++
			res.PerLabel[r.Label]++
		}
	}
	for s := range unknown {
		res.UnknownSources = append(res.UnknownSources, s)
	}
	sort.Strings(res.UnknownSources)
	return plan, res, nil
}

// Apply attaches the hierarchy's labels to every qualifying tuple of rel,
// at most once per tuple per label, and returns what changed. Applying the
// same hierarchy twice is a no-op (idempotent), matching the paper's
// "a data tuple can have a given label at most once".
func (h *Hierarchy) Apply(rel *relation.Relation) (*Result, error) {
	plan, res, err := h.PlanUpdates(rel)
	if err != nil {
		return nil, err
	}
	if len(plan) == 0 {
		return res, nil
	}
	if _, _, err := rel.ApplyUpdates(plan); err != nil {
		return nil, fmt.Errorf("generalize: apply plan: %w", err)
	}
	return res, nil
}

// ApplyToTuple computes which labels a free-standing tuple should receive,
// without mutating any relation. The predict package uses it so that
// recommendations for incoming tuples see the same extended annotation view
// as the mined rules. The returned items are the derived labels to add;
// dict must already contain the hierarchy's labels (i.e. Apply ran at least
// once against a relation sharing this dictionary).
func (h *Hierarchy) ApplyToTuple(dict *relation.Dictionary, t relation.Tuple) (itemset.Itemset, error) {
	annots := t.Annots
	var added itemset.Itemset
	for _, r := range h.rules {
		labelItem, ok := dict.Lookup(r.Label)
		if !ok {
			return nil, fmt.Errorf("generalize: label %q not interned; run Apply first", r.Label)
		}
		if annots.Contains(labelItem) || added.Contains(labelItem) {
			continue
		}
		for _, s := range r.Sources {
			it, ok := dict.Lookup(s)
			if !ok {
				continue
			}
			if annots.Contains(it) || added.Contains(it) {
				added = added.Add(labelItem)
				break
			}
		}
	}
	return added, nil
}
