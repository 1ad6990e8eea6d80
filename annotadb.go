// Package annotadb discovers, maintains, serves, and persists correlations
// in annotated databases. It is a Go implementation — grown into an online
// system — of "Discovering Correlations in Annotated Databases" (Donohue,
// advised by Eltabakh; WPI 2015 / EDBT 2016): association rules whose
// right-hand side is an annotation are mined from an annotated relation,
// kept incrementally exact as tuples and annotations arrive, and exploited
// to recommend missing annotations.
//
// # Building blocks
//
//   - Dataset: an annotated relation, loadable from the paper's text format
//     (Figure 4: one tuple per line, Annot_-prefixed tokens are
//     annotations);
//   - Mine: one-shot rule discovery (data-to-annotation and
//     annotation-to-annotation families, via Apriori or FP-Growth);
//   - Engine: incremental maintenance — rules stay exactly equal to a full
//     re-mine while annotated tuples (Case 1), un-annotated tuples
//     (Case 2), annotation batches (Case 3, Figure 14), and annotation
//     removals are applied;
//   - Recommend*: rule-backed suggestions of missing annotations, as
//     database scans and as insert triggers (§5);
//   - Server (NewServer): a concurrent serving core — reads answer from an
//     atomically published immutable snapshot and never block behind
//     writes, writes are coalesced by a single writer; cmd/annotserve puts
//     it on HTTP. With ServeOptions.Shards (or NewShardedServer) the state
//     partitions by annotation family into independent write paths whose
//     merged view stays exact for intra-family correlations;
//   - OpenDurable: the persistent form of the above — every update batch
//     is write-ahead logged and the relation is checkpointed, so a restart
//     re-mines the checkpointed relation and replays only the
//     un-checkpointed tail, not every batch since the dataset was loaded;
//   - Server.Subscribe: a durable, cursor-resumable stream of rule churn —
//     every published generation is diffed against its predecessor into
//     typed events (promoted, demoted, added, retired, confidence changed)
//     retained in rotated log segments, so curators watch the rules evolve
//     instead of polling and diffing; cmd/annotserve serves it as
//     GET /events (Server-Sent Events with Last-Event-ID resume).
//
// Generalization rules ("Annot_X : Annot_1, Annot_5", Figure 9) can be
// applied to a Dataset or routed through an Engine, extending the database
// with concept labels so correlations hidden by raw-annotation variance
// become minable.
//
// # A minimal session
//
//	ds, _ := annotadb.LoadDataset("dataset.txt")
//	eng, _ := annotadb.NewEngine(ds, annotadb.Options{MinSupport: 0.4, MinConfidence: 0.8})
//	for _, r := range eng.Rules() {
//		fmt.Println(r)
//	}
//	eng.AddAnnotations([]annotadb.AnnotationUpdate{{Tuple: 150, Annotation: "Annot_3"}})
//	for _, rec := range eng.RecommendAll(annotadb.RecommendOptions{}) {
//		fmt.Println(rec)
//	}
//
// And the durable serving form of the same loop:
//
//	eng, rec, _ := annotadb.OpenDurable("dataset.txt", annotadb.Options{MinSupport: 0.4, MinConfidence: 0.8},
//		annotadb.DurabilityOptions{Dir: "./annotdata"})
//	srv := annotadb.NewServer(eng, annotadb.ServeOptions{})
//	defer srv.Close(context.Background())
//	srv.AddAnnotations(ctx, batch) // write-ahead logged, applied, published
//
// The runnable Example functions in this package exercise both paths.
//
// # Where things live
//
// ARCHITECTURE.md at the repository root maps every package to the paper
// section it implements and describes the serving and durability designs;
// cmd/annotserve/README.md documents the HTTP API with curl examples. The
// exported API of this module is doc-commented throughout and enforced by
// the docs lint (internal/docs).
package annotadb

import (
	"errors"
	"fmt"
	"io"
	"math"
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
	"annotadb/internal/shard"
	"annotadb/internal/storage"
)

// AnnotationPrefix is the token prefix that marks annotations in dataset
// files, matching the paper's Annot_* convention.
const AnnotationPrefix = storage.DefaultAnnotationPrefix

// Dataset is an annotated relation: tuples of data values with attached
// annotation sets. The zero value is not usable; construct with NewDataset,
// ReadDataset, or LoadDataset.
type Dataset struct {
	rel *relation.Relation
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{rel: relation.New()}
}

// ReadDataset parses the paper's dataset format (Figure 4) from r.
func ReadDataset(r io.Reader) (*Dataset, error) {
	rel, err := storage.ReadDataset(r, storage.Options{})
	if err != nil {
		return nil, err
	}
	return &Dataset{rel: rel}, nil
}

// LoadDataset parses a dataset file in the paper's format.
func LoadDataset(path string) (*Dataset, error) {
	rel, err := storage.ReadDatasetFile(path, storage.Options{})
	if err != nil {
		return nil, err
	}
	return &Dataset{rel: rel}, nil
}

// Len returns the number of tuples.
func (d *Dataset) Len() int { return d.rel.Len() }

// AddTuple appends one tuple and returns its zero-based position.
// Annotation tokens must carry the Annot_ prefix if the dataset is to be
// written back in the paper's file format.
func (d *Dataset) AddTuple(values []string, annotations []string) (int, error) {
	tu, err := d.rel.Dictionary().ResolveTuple(values, annotations)
	if err != nil {
		return 0, err
	}
	return d.rel.Append(tu), nil
}

// Tuple returns the tokens of the tuple at position i.
func (d *Dataset) Tuple(i int) (values []string, annotations []string, err error) {
	tu, err := d.rel.Tuple(i)
	if err != nil {
		return nil, nil, err
	}
	dict := d.rel.Dictionary()
	return dict.Tokens(tu.Data), dict.Tokens(tu.Annots), nil
}

// Stats summarizes the dataset.
type Stats struct {
	Tuples              int
	AnnotatedTuples     int
	Attachments         int
	DistinctAnnotations int
	DistinctValues      int
}

// Stats computes summary statistics.
func (d *Dataset) Stats() Stats {
	s := d.rel.Stats()
	return Stats{
		Tuples:              s.Tuples,
		AnnotatedTuples:     s.AnnotatedTuples,
		Attachments:         s.Annotations,
		DistinctAnnotations: s.DistinctAnnots,
		DistinctValues:      s.DistinctData,
	}
}

// Write writes the dataset in the paper's file format.
func (d *Dataset) Write(w io.Writer) error {
	return storage.WriteDataset(w, d.rel, storage.Options{})
}

// Save installs the dataset file durably and atomically, mirroring the
// paper's application, which rewrites the dataset after every update. The
// file keeps mode 0644.
func (d *Dataset) Save(path string) error {
	return storage.WriteDatasetFile(path, d.rel, storage.Options{})
}

// AnnotationFrequency returns the number of tuples carrying the annotation
// token — the paper's annotation frequency table.
func (d *Dataset) AnnotationFrequency(token string) int {
	it, ok := d.rel.Dictionary().Lookup(token)
	if !ok {
		return 0
	}
	return d.rel.Frequency(it)
}

// Options configure mining and maintenance.
type Options struct {
	// MinSupport α and MinConfidence β (Defs. 4.2/4.3 thresholds).
	MinSupport    float64
	MinConfidence float64
	// Algorithm selects the miner: "apriori" (default), which counts every
	// candidate from the relation's per-item tuple bitmaps, or "fpgrowth",
	// which projects the tuples into transactions and mines an FP-tree.
	// Both find the same rules.
	Algorithm string
	// CandidateSlack γ keeps near-miss rules down to γ·α·N for cheap
	// incremental promotion; 0 means the default 0.8, 1 disables the pool.
	CandidateSlack float64
	// MaxPatternLen bounds rule pattern size; 0 is unbounded.
	MaxPatternLen int
	// ExcludeGeneralizations hides derived labels from mining.
	ExcludeGeneralizations bool
}

func (o Options) internal() (mining.Config, error) {
	cfg := mining.Config{
		MinSupport:     o.MinSupport,
		MinConfidence:  o.MinConfidence,
		CandidateSlack: o.CandidateSlack,
		MaxLen:         o.MaxPatternLen,
		ExcludeDerived: o.ExcludeGeneralizations,
	}
	switch strings.ToLower(o.Algorithm) {
	case "", "apriori":
		cfg.Algorithm = mining.AlgorithmApriori
	case "fpgrowth", "fp-growth":
		cfg.Algorithm = mining.AlgorithmFPGrowth
	default:
		return cfg, fmt.Errorf("annotadb: unknown algorithm %q (want apriori or fpgrowth)", o.Algorithm)
	}
	return cfg, cfg.Validate()
}

// RuleKind names the two rule families of the paper. It is plain string —
// the wire spelling in Rule.Kind and GET /rules?kind= — so a Rule encodes and
// compares without conversion.
type RuleKind = string

const (
	// DataToAnnotation rules have data values on the left-hand side.
	DataToAnnotation RuleKind = "data-to-annotation"
	// AnnotationToAnnotation rules have annotations on the left-hand side.
	AnnotationToAnnotation RuleKind = "annotation-to-annotation"
)

// Rule is an association rule with string tokens and derived statistics:
// LHS (tokens) and RHS (token), Kind (DataToAnnotation or
// AnnotationToAnnotation), the derived Support and Confidence, and the raw
// integer counts they derive from — PatternCount tuples contain LHS∪{RHS},
// LHSCount contain LHS, out of N tuples. String renders the Figure 7 output
// line. The type carries its wire JSON tags: GET /rules and the rule inside
// a /recommend entry are this struct encoded as is.
type Rule = rules.TokenRule

// Mine runs a one-shot mining pass and returns the valid rules in the
// dataset's rule order: by kind (data-to-annotation, then
// annotation-to-annotation), then by LHS length, then by LHS items and
// finally RHS, comparing items by their interned ids — the order the
// dataset first saw each token, not the tokens' spelling. (Server.Rules
// orders by kind, then LHS tokens, then RHS token instead.)
func Mine(d *Dataset, opts Options) ([]Rule, error) {
	cfg, err := opts.internal()
	if err != nil {
		return nil, err
	}
	res, err := mining.Mine(d.rel, cfg)
	if err != nil {
		return nil, err
	}
	return rules.RenderAll(d.rel.Dictionary(), res.Rules.Sorted()), nil
}

// WriteRules writes rules in the paper's Figure 7 output format.
func WriteRules(w io.Writer, rs []Rule, minSupport, minConfidence float64) error {
	if _, err := fmt.Fprintf(w, "# association rules (min support %.4f, min confidence %.4f)\n", minSupport, minConfidence); err != nil {
		return err
	}
	for _, r := range rs {
		if _, err := fmt.Fprintln(w, r.String()); err != nil {
			return err
		}
	}
	return nil
}

// AnnotationUpdate attaches Annotation (a token) to the tuple at zero-based
// position Tuple — the programmatic form of a Figure 14 batch line. The same
// struct is the element of a POST /annotations body and of a write-ahead log
// record, so a batch travels from the API to the log without being copied.
type AnnotationUpdate = relation.TokenUpdate

// UpdateReport summarizes one incremental maintenance operation. Its JSON
// form is the body of a successful POST /annotations or POST /tuples.
type UpdateReport struct {
	// Operation names the update case that ran.
	Operation string `json:"operation"`
	// Applied counts tuples appended or annotations attached; Skipped
	// counts duplicate annotation attachments ignored.
	Applied int `json:"applied"`
	Skipped int `json:"skipped"`
	// Rule churn caused by the update.
	Promoted   int `json:"promoted"`
	Demoted    int `json:"demoted"`
	Discovered int `json:"discovered"`
	Dropped    int `json:"dropped"`
	// Remined records that the engine fell back to a full re-mine.
	Remined bool `json:"remined"`
	// DurationSeconds is the wall time of the maintenance work.
	DurationSeconds float64 `json:"duration_seconds"`
	// Seq is the snapshot sequence current when a Server acknowledged the
	// write (zero for direct Engine operations, which have no snapshot
	// machinery). Because a serving writer publishes the new snapshot
	// before delivering the ack, every read served at or after Seq
	// observes this write: a client that remembers the largest Seq it has
	// been acked and compares it against the seq reported by /recommend
	// gets read-your-writes. Seq restarts from one when a durable server
	// reopens.
	Seq uint64 `json:"seq"`
	// SeqVector is the per-shard equivalent of Seq on sharded servers
	// (nil otherwise): component i was read from shard i after the ack,
	// so a read whose seq_vector dominates it observes the write. Seq is
	// then the vector's sum — monotone, so still usable as a scalar
	// staleness bound.
	SeqVector []uint64 `json:"seq_vector,omitempty"`
}

func publicReport(r *incremental.Report) UpdateReport {
	return UpdateReport{
		Operation:       r.Case.String(),
		Applied:         r.Applied,
		Skipped:         r.Skipped,
		Promoted:        r.Promoted,
		Demoted:         r.Demoted,
		Discovered:      r.Discovered,
		Dropped:         r.Dropped,
		Remined:         r.Remined,
		DurationSeconds: r.Duration.Seconds(),
	}
}

// TupleSpec is a tuple to insert: Values (data value tokens) plus
// Annotations (annotation tokens). Like AnnotationUpdate it is the one tuple
// type from the API to the write-ahead log, and the element of a POST
// /tuples body.
type TupleSpec = relation.TokenTuple

// Engine maintains the rule set of a dataset incrementally. After an Engine
// is created, route all dataset mutations through it; mutating the Dataset
// directly leaves the engine's rules stale.
//
// An engine opened with DurabilityOptions.Shards > 1 is a handle on a
// sharded cluster: wrap it in NewServer and route everything through the
// Server — direct Engine reads return empty results and direct Engine
// writes fail with ErrShardedEngine (there is no single underlying engine
// to call).
type Engine struct {
	ds  *Dataset
	eng *incremental.Engine
	// cluster is the durable backing store when the engine came from
	// OpenDurable (one store per shard); NewServer wires its stores into
	// the shard writers' journals. flushWindow is the store's
	// DurabilityOptions.FlushWindow as given, which NewServer's durable
	// event log flushes under too.
	cluster     *shard.Cluster
	flushWindow time.Duration
}

// ErrShardedEngine is returned by direct Engine mutations on a sharded
// engine; wrap the engine in NewServer and write through the Server.
var ErrShardedEngine = errors.New("annotadb: sharded engine: route reads and writes through NewServer")

// NewEngine mines the dataset once and returns an engine that keeps the
// result exact under updates. The engine is purely in-memory; use
// OpenDurable for one whose serving state survives restarts.
func NewEngine(d *Dataset, opts Options) (*Engine, error) {
	cfg, err := opts.internal()
	if err != nil {
		return nil, err
	}
	eng, err := incremental.New(d.rel, cfg, incremental.Options{})
	if err != nil {
		return nil, err
	}
	return &Engine{ds: d, eng: eng}, nil
}

// Dataset returns the engine's dataset (treat as read-only).
func (e *Engine) Dataset() *Dataset { return e.ds }

// Rules returns the current valid rules, or nil for a sharded engine (read
// through the Server instead). They are in Mine's order: by kind, then LHS
// length, then LHS items and RHS by interned id.
func (e *Engine) Rules() []Rule {
	if e.eng == nil {
		return nil
	}
	return rules.RenderAll(e.ds.rel.Dictionary(), e.eng.RulesView().Sorted())
}

// Candidates returns the near-miss candidate store (rules slightly below
// the thresholds, retained for cheap promotion) in Mine's order: by kind,
// then LHS length, then LHS items and RHS by interned id. Nil for a sharded
// engine. The candidates with pattern count at or above min support are
// exactly a full re-mine's; the surplus below it depends on the engine's
// history, and a durable engine's resets to a full mine's on every open.
func (e *Engine) Candidates() []Rule {
	if e.eng == nil {
		return nil
	}
	return rules.RenderAll(e.ds.rel.Dictionary(), e.eng.Candidates().Sorted())
}

// AddTuples appends a batch of tuples, choosing the paper's Case 1 path
// when any tuple carries annotations and the cheaper Case 2 path when none
// do.
func (e *Engine) AddTuples(batch []TupleSpec) (UpdateReport, error) {
	if e.eng == nil {
		return UpdateReport{}, ErrShardedEngine
	}
	tuples, err := e.ds.rel.Dictionary().ResolveTuples(batch)
	if err != nil {
		return UpdateReport{}, fmt.Errorf("annotadb: %w", err)
	}
	rep, err := e.eng.AddTuples(tuples)
	if err != nil {
		return UpdateReport{}, err
	}
	return publicReport(rep), nil
}

// AddAnnotations applies a batch of annotation attachments (Case 3,
// Figures 12–13). Duplicate attachments are skipped and reported, matching
// the paper's "a data tuple can have a given label at most once".
func (e *Engine) AddAnnotations(batch []AnnotationUpdate) (UpdateReport, error) {
	if e.eng == nil {
		return UpdateReport{}, ErrShardedEngine
	}
	updates, err := e.ds.rel.Dictionary().ResolveUpdates(batch)
	if err != nil {
		return UpdateReport{}, fmt.Errorf("annotadb: %w", err)
	}
	rep, err := e.eng.AddAnnotations(updates)
	if err != nil {
		return UpdateReport{}, err
	}
	return publicReport(rep), nil
}

// RemoveAnnotations detaches a batch of annotations (the paper's §6 future
// work, implemented as Case 3 in reverse). Entries whose annotation is not
// present are skipped and reported. Confidence can rise under removal, so
// the report may show promotions.
func (e *Engine) RemoveAnnotations(batch []AnnotationUpdate) (UpdateReport, error) {
	if e.eng == nil {
		return UpdateReport{}, ErrShardedEngine
	}
	dict := e.ds.rel.Dictionary()
	updates := make([]relation.AnnotationUpdate, len(batch))
	var kindErr error
	for i, u := range batch {
		it, ok, err := dict.LookupAnnotation(u.Annotation)
		if !ok {
			return UpdateReport{}, fmt.Errorf("annotadb: removal %d: annotation %q unknown to this dataset", i, u.Annotation)
		}
		if err != nil && kindErr == nil {
			// An unknown token anywhere in the batch is reported first.
			kindErr = fmt.Errorf("annotadb: removal: update %d: %w", i, err)
		}
		updates[i] = relation.AnnotationUpdate{Index: u.Tuple, Annotation: it}
	}
	if kindErr != nil {
		return UpdateReport{}, kindErr
	}
	rep, err := e.eng.RemoveAnnotations(updates)
	if err != nil {
		return UpdateReport{}, err
	}
	return publicReport(rep), nil
}

// ApplyUpdateFile reads a Figure 14-format annotation batch ("150:Annot_3",
// 1-based tuple indexes) and applies it through the engine.
func (e *Engine) ApplyUpdateFile(r io.Reader) (UpdateReport, error) {
	if e.eng == nil {
		return UpdateReport{}, ErrShardedEngine
	}
	lines, err := storage.ReadUpdateBatch(r, storage.Options{})
	if err != nil {
		return UpdateReport{}, err
	}
	updates, err := storage.ResolveUpdates(e.ds.rel, lines)
	if err != nil {
		return UpdateReport{}, err
	}
	rep, err := e.eng.AddAnnotations(updates)
	if err != nil {
		return UpdateReport{}, err
	}
	return publicReport(rep), nil
}

// Verify re-mines from scratch and checks the maintained rules are
// identical — the paper's own validation methodology, exposed for tests and
// audits. On a sharded engine every shard is verified against a re-mine of
// its own family projection.
func (e *Engine) Verify() error {
	if e.eng != nil {
		return e.eng.Verify()
	}
	for s, eng := range e.cluster.Engines() {
		if err := eng.Verify(); err != nil {
			return fmt.Errorf("annotadb: shard %d: %w", s, err)
		}
	}
	return nil
}

// Generalization is one concept-mapping rule (Figure 9): any tuple carrying
// any source annotation receives Label.
type Generalization struct {
	Label   string
	Sources []string
}

// GeneralizationReport summarizes one generalization pass.
type GeneralizationReport struct {
	// Attached counts new (tuple, label) attachments.
	Attached int
	// PerLabel breaks Attached down by label.
	PerLabel map[string]int
	// UnknownSources lists source annotations absent from the dataset.
	UnknownSources []string
	// Update carries the maintenance report when the pass ran through an
	// Engine.
	Update *UpdateReport
}

// ParseGeneralizations reads Figure 9-format rules
// ("Annot_X : Annot_1, Annot_5").
func ParseGeneralizations(r io.Reader) ([]Generalization, error) {
	parsed, err := generalize.Parse(r)
	if err != nil {
		return nil, err
	}
	out := make([]Generalization, len(parsed))
	for i, g := range parsed {
		out[i] = Generalization{Label: g.Label, Sources: g.Sources}
	}
	return out, nil
}

func buildHierarchy(gens []Generalization) (*generalize.Hierarchy, error) {
	rs := make([]generalize.Rule, len(gens))
	for i, g := range gens {
		rs[i] = generalize.Rule{Label: g.Label, Sources: g.Sources}
	}
	return generalize.Build(rs)
}

// ApplyGeneralizations extends the dataset with concept labels (at most one
// per tuple per label; idempotent). Use Engine.ApplyGeneralizations instead
// when an engine manages the dataset.
func (d *Dataset) ApplyGeneralizations(gens []Generalization) (*GeneralizationReport, error) {
	h, err := buildHierarchy(gens)
	if err != nil {
		return nil, err
	}
	res, err := h.Apply(d.rel)
	if err != nil {
		return nil, err
	}
	return &GeneralizationReport{Attached: res.Attached, PerLabel: res.PerLabel, UnknownSources: res.UnknownSources}, nil
}

// ApplyGeneralizations extends the engine's dataset with concept labels and
// routes the attachments through incremental maintenance as a Case 3 batch,
// so the mined rules immediately reflect the extended database.
func (e *Engine) ApplyGeneralizations(gens []Generalization) (*GeneralizationReport, error) {
	if e.eng == nil {
		return nil, ErrShardedEngine
	}
	h, err := buildHierarchy(gens)
	if err != nil {
		return nil, err
	}
	plan, res, err := h.PlanUpdates(e.ds.rel)
	if err != nil {
		return nil, err
	}
	out := &GeneralizationReport{Attached: res.Attached, PerLabel: res.PerLabel, UnknownSources: res.UnknownSources}
	if len(plan) == 0 {
		return out, nil
	}
	rep, err := e.eng.AddAnnotations(plan)
	if err != nil {
		return nil, err
	}
	pub := publicReport(rep)
	out.Update = &pub
	return out, nil
}

// Recommendation proposes attaching Annotation (a token) to the tuple at
// zero-based position Tuple (-1 for a tuple not yet inserted), justified by
// Rule. String renders it for curators, with the supporting rule's
// properties as the paper's Figure 17 prescribes. The type carries its wire
// JSON tags: a GET /recommend entry is this struct encoded as is.
type Recommendation = predict.TokenRecommendation

// RecommendOptions filter recommendation output.
type RecommendOptions struct {
	// MinConfidence and MinSupport filter supporting rules beyond their
	// validity thresholds.
	MinConfidence float64
	MinSupport    float64
	// ExcludeGeneralizations suppresses recommendations of derived labels.
	ExcludeGeneralizations bool
	// Limit caps the number of recommendations (0 = unbounded).
	Limit int
}

func (o RecommendOptions) internal() predict.Options {
	return predict.Options{
		MinConfidence:  o.MinConfidence,
		MinSupport:     o.MinSupport,
		ExcludeDerived: o.ExcludeGeneralizations,
		Limit:          o.Limit,
	}
}

// RecommendAll scans the whole dataset for missing annotations (§5 case 1).
// Nil for a sharded engine.
func (e *Engine) RecommendAll(opts RecommendOptions) []Recommendation {
	return e.RecommendRange(0, math.MaxInt, opts)
}

// RecommendRange scans tuple positions [start, end). Nil for a sharded
// engine.
func (e *Engine) RecommendRange(start, end int, opts RecommendOptions) []Recommendation {
	if e.eng == nil {
		return nil
	}
	c := predict.Compile(e.eng.RulesView(), opts.internal())
	return predict.Render(e.ds.rel.Dictionary(), c.ScanRange(e.ds.rel, start, end))
}

// RecommendForTuple evaluates a tuple before insertion (§5 case 2, the
// trigger path): which annotations would the current rules suggest?
func (e *Engine) RecommendForTuple(spec TupleSpec, opts RecommendOptions) ([]Recommendation, error) {
	if e.eng == nil {
		return nil, ErrShardedEngine
	}
	tu, err := e.ds.rel.Dictionary().ResolveTuple(spec.Values, spec.Annotations)
	if err != nil {
		return nil, err
	}
	c := predict.Compile(e.eng.RulesView(), opts.internal())
	return predict.Render(e.ds.rel.Dictionary(), c.ForTuple(tu)), nil
}

// AddTuplesWithTrigger appends a batch and immediately returns trigger
// recommendations for the inserted tuples, mirroring the paper's
// database-trigger exploitation: "when a patch of new tuples is added to
// the database, the system automatically compares these tuples to the
// association rules".
func (e *Engine) AddTuplesWithTrigger(batch []TupleSpec, opts RecommendOptions) (UpdateReport, []Recommendation, error) {
	if e.eng == nil {
		return UpdateReport{}, nil, ErrShardedEngine
	}
	start := e.ds.Len()
	rep, err := e.AddTuples(batch)
	if err != nil {
		return UpdateReport{}, nil, err
	}
	return rep, e.RecommendRange(start, e.ds.Len(), opts), nil
}

// Annotations lists every annotation token present in the dataset with its
// frequency, sorted by token.
func (d *Dataset) Annotations() []AnnotationCount {
	dict := d.rel.Dictionary()
	var out []AnnotationCount
	d.rel.EachFrequency(func(it itemset.Item, n int) {
		if n > 0 {
			out = append(out, AnnotationCount{Token: dict.Token(it), Count: n, Derived: it.IsDerived()})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Token < out[j].Token })
	return out
}

// AnnotationCount pairs an annotation token with its tuple frequency.
type AnnotationCount struct {
	Token   string
	Count   int
	Derived bool
}
