package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"annotadb/internal/relation"
)

// TokenTuple is one generated tuple in token form — the relation package's
// token-form tuple, with fields Values (data-value tokens) and Annotations
// (annotation tokens): the shape POST /tuples accepts and the Figure 4 text
// format stores (data values first, then annotation tokens).
type TokenTuple = relation.TokenTuple

// TokenUpdate attaches Annotation (a token) to the zero-based tuple position
// Tuple — the relation package's token-form update, the shape POST
// /annotations accepts.
type TokenUpdate = relation.TokenUpdate

// Stream is a deterministic token-form traffic source for the macro load
// harness: Base builds the corpus a server is seeded with, and Tuples and
// Annotations sample endless write batches from the same distribution.
// Every method's output is deterministic in the constructor seed and the
// call sequence, so a load run (and its golden files) reproduce
// byte-for-byte from (corpus, seed).
type Stream interface {
	// Name identifies the corpus family in reports and golden files.
	Name() string
	// IsAnnotation classifies one token of this corpus, for the text
	// dataset format whose storage classifier is pluggable
	// (storage.Options.Classifier).
	IsAnnotation(token string) bool
	// Base samples the n-tuple seed corpus.
	Base(n int) []TokenTuple
	// Tuples samples an n-tuple POST /tuples batch.
	Tuples(n int) []TokenTuple
	// Annotations samples an n-update POST /annotations batch over tuple
	// positions [0, relLen).
	Annotations(n, relLen int) []TokenUpdate
}

// NewStream constructs the named corpus stream: "paper" (the Figure 4/14
// Annot_k shape at the paper's scale), "metrics" (metric×container
// observability families), or "linguistic" (a Cassidy-&-Bird-style
// annotated speech corpus).
func NewStream(corpus string, seed int64) (Stream, error) {
	switch corpus {
	case "", "paper":
		return NewPaperStream(Default8K(seed))
	case "metrics":
		return NewMetricsStream(seed), nil
	case "linguistic":
		return NewLinguisticStream(seed), nil
	default:
		return nil, fmt.Errorf("workload: unknown corpus %q (want paper, metrics, or linguistic)", corpus)
	}
}

// BuildRelation resolves token tuples into a fresh relation, in order.
func BuildRelation(tuples []TokenTuple) (*relation.Relation, error) {
	rel := relation.New()
	batch, err := rel.Dictionary().ResolveTuples(tuples)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	rel.Append(batch...)
	return rel, nil
}

// PaperStream adapts the Figure 4 Generator to the Stream interface: the
// paper's Annot_k vocabulary with Default8K's planted correlations, in
// token form.
type PaperStream struct {
	spec Spec
	gen  *Generator
	// dict interns generated tuples so they can be rendered back to
	// tokens; it never leaves the stream.
	dict *relation.Relation
	rng  *rand.Rand
}

// NewPaperStream wraps a Figure 4 generator spec as a token stream.
func NewPaperStream(spec Spec) (*PaperStream, error) {
	gen, err := NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	return &PaperStream{
		spec: spec,
		gen:  gen,
		dict: relation.New(),
		rng:  rand.New(rand.NewSource(spec.Seed + 1)),
	}, nil
}

// Name implements Stream.
func (p *PaperStream) Name() string { return "paper" }

// IsAnnotation implements Stream: the paper's Annot_ prefix convention.
func (p *PaperStream) IsAnnotation(token string) bool {
	return strings.HasPrefix(token, "Annot_")
}

// Base implements Stream.
func (p *PaperStream) Base(n int) []TokenTuple { return p.sample(n, true) }

// Tuples implements Stream.
func (p *PaperStream) Tuples(n int) []TokenTuple { return p.sample(n, true) }

func (p *PaperStream) sample(n int, annotated bool) []TokenTuple {
	d := p.dict.Dictionary()
	var tuples []relation.Tuple
	var err error
	if annotated {
		tuples, err = p.gen.AnnotatedTuples(d, n)
	} else {
		tuples, err = p.gen.UnannotatedTuples(d, n)
	}
	if err != nil {
		// The only intern failures are kind conflicts, which a
		// single-writer stream over its own dictionary cannot produce.
		panic(err)
	}
	out := make([]TokenTuple, len(tuples))
	for i, tu := range tuples {
		out[i] = TokenTuple{Values: d.Tokens(tu.Data), Annotations: d.Tokens(tu.Annots)}
	}
	return out
}

// Annotations implements Stream: random Annot_k attachments over the
// relation, the shape of the paper's Figure 14 batches.
func (p *PaperStream) Annotations(n, relLen int) []TokenUpdate {
	if relLen <= 0 || n <= 0 {
		return nil
	}
	out := make([]TokenUpdate, n)
	for i := range out {
		out[i] = TokenUpdate{
			Tuple:      p.rng.Intn(relLen),
			Annotation: "Annot_" + strconv.Itoa(1+p.rng.Intn(maxInt(1, p.spec.Annotations))),
		}
	}
	return out
}

// MetricsStream generates a metric×container observability corpus in the
// spirit of datadog-style correlation discovery: each tuple is one
// container observation (host, container, image data values) carrying
// threshold-crossing annotations in family:state form (cpu:high,
// mem:high, oom:kill, …). The ":" family prefixes make the corpus
// shard-friendly — the server partitions the write path by exactly that
// prefix — and the planted correlations span both rule kinds:
//
//   - img=i0 ⇒ cpu:high (data → annotation): one image is a CPU hog.
//   - cpu:high ⇒ sched:throttle (annotation → annotation): hot containers
//     get throttled.
//   - mem:high ⇒ oom:kill (annotation → annotation): memory pressure
//     kills.
//
// All sampling is deterministic in the seed.
type MetricsStream struct {
	rng        *rand.Rand
	hosts      int
	containers int
	images     int
}

// NewMetricsStream returns a metrics corpus stream deterministic in seed.
func NewMetricsStream(seed int64) *MetricsStream {
	return &MetricsStream{
		rng:        rand.New(rand.NewSource(seed)),
		hosts:      16,
		containers: 48,
		images:     8,
	}
}

// metricsNoise are the noise annotation tokens with their per-tuple attach
// probability: background alerting unrelated to the planted correlations.
var metricsNoise = []struct {
	token string
	p     float64
}{
	{"net:sat", 0.06},
	{"disk:full", 0.04},
	{"io:slow", 0.08},
	{"restart:loop", 0.03},
	{"mem:high", 0.30}, // the mem:high ⇒ oom:kill LHS arrives as noise
}

// Name implements Stream.
func (m *MetricsStream) Name() string { return "metrics" }

// IsAnnotation implements Stream: annotations are family:state tokens;
// data values are key=value tokens and never contain a colon.
func (m *MetricsStream) IsAnnotation(token string) bool {
	return strings.Contains(token, ":")
}

// Base implements Stream.
func (m *MetricsStream) Base(n int) []TokenTuple { return m.Tuples(n) }

// Tuples implements Stream.
func (m *MetricsStream) Tuples(n int) []TokenTuple {
	out := make([]TokenTuple, n)
	for i := range out {
		ctr := m.rng.Intn(m.containers)
		img := ctr % m.images
		values := []string{
			"host=h" + strconv.Itoa(m.rng.Intn(m.hosts)),
			"ctr=c" + strconv.Itoa(ctr),
			"img=i" + strconv.Itoa(img),
		}
		var annots []string
		attach := func(tok string) {
			for _, a := range annots {
				if a == tok {
					return
				}
			}
			annots = append(annots, tok)
		}
		// Planted: the hog image runs hot (support comes from img=i0's
		// 1/images share of tuples; confidence 0.9).
		if img == 0 && m.rng.Float64() < 0.9 {
			attach("cpu:high")
		}
		// Background cpu:high on other images keeps the rule's LHS from
		// being a perfect predictor of the image.
		if img != 0 && m.rng.Float64() < 0.05 {
			attach("cpu:high")
		}
		for _, nz := range metricsNoise {
			if m.rng.Float64() < nz.p {
				attach(nz.token)
			}
		}
		// Planted annotation→annotation implications, applied after the
		// LHS draws so confidence is conditional as measured.
		if contains(annots, "cpu:high") && m.rng.Float64() < 0.85 {
			attach("sched:throttle")
		}
		if contains(annots, "mem:high") && m.rng.Float64() < 0.8 {
			attach("oom:kill")
		}
		out[i] = TokenTuple{Values: values, Annotations: annots}
	}
	return out
}

// Annotations implements Stream: alert churn — random family:state
// attachments over live tuples, weighted toward the planted families so
// incremental maintenance sees promotions, not just noise.
func (m *MetricsStream) Annotations(n, relLen int) []TokenUpdate {
	if relLen <= 0 || n <= 0 {
		return nil
	}
	vocab := []string{
		"cpu:high", "mem:high", "oom:kill", "sched:throttle",
		"net:sat", "disk:full", "io:slow", "restart:loop",
	}
	out := make([]TokenUpdate, n)
	for i := range out {
		out[i] = TokenUpdate{
			Tuple:      m.rng.Intn(relLen),
			Annotation: vocab[m.rng.Intn(len(vocab))],
		}
	}
	return out
}

// LinguisticStream generates an annotated speech corpus after Cassidy &
// Bird ("Querying Databases of Annotated Speech"): each tuple is one word
// token with its speaker and document as data values, and layered
// annotations in family:label form — part of speech (pos:), syntactic
// chunk (syn:), phonological prominence (phon:), and discourse role
// (disc:). The planted correlations mirror real annotation-layer
// dependencies:
//
//   - each word ⇒ its pos: tag (data → annotation, confidence 0.92),
//   - pos:det ⇒ syn:np (annotation → annotation: determiners open noun
//     phrases, confidence 0.85),
//   - filler words ⇒ disc:filler (data → annotation, confidence 0.8).
//
// All sampling is deterministic in the seed.
type LinguisticStream struct {
	rng      *rand.Rand
	speakers int
	docs     int
}

// NewLinguisticStream returns a linguistic corpus stream deterministic in
// seed.
func NewLinguisticStream(seed int64) *LinguisticStream {
	return &LinguisticStream{
		rng:      rand.New(rand.NewSource(seed)),
		speakers: 8,
		docs:     12,
	}
}

// lingWords is the corpus vocabulary with gold part-of-speech tags. The
// repetition of frequent function words gives the Zipf-ish skew real
// transcripts have.
var lingWords = []struct {
	word string
	pos  string
}{
	{"the", "det"}, {"the", "det"}, {"the", "det"}, {"a", "det"}, {"a", "det"},
	{"and", "conj"}, {"and", "conj"}, {"but", "conj"},
	{"i", "pron"}, {"i", "pron"}, {"you", "pron"}, {"it", "pron"},
	{"is", "verb"}, {"was", "verb"}, {"said", "verb"}, {"went", "verb"},
	{"see", "verb"}, {"know", "verb"}, {"think", "verb"},
	{"cat", "noun"}, {"dog", "noun"}, {"house", "noun"}, {"water", "noun"},
	{"road", "noun"}, {"day", "noun"}, {"time", "noun"}, {"people", "noun"},
	{"big", "adj"}, {"small", "adj"}, {"old", "adj"}, {"good", "adj"},
	{"quickly", "adv"}, {"here", "adv"}, {"now", "adv"},
	{"um", "filler"}, {"uh", "filler"}, {"like", "filler"},
}

// Name implements Stream.
func (l *LinguisticStream) Name() string { return "linguistic" }

// IsAnnotation implements Stream: annotation layers are family:label
// tokens; word and key=value data tokens never contain a colon.
func (l *LinguisticStream) IsAnnotation(token string) bool {
	return strings.Contains(token, ":")
}

// Base implements Stream.
func (l *LinguisticStream) Base(n int) []TokenTuple { return l.Tuples(n) }

// Tuples implements Stream.
func (l *LinguisticStream) Tuples(n int) []TokenTuple {
	out := make([]TokenTuple, n)
	for i := range out {
		w := lingWords[l.rng.Intn(len(lingWords))]
		values := []string{
			w.word,
			"spk=s" + strconv.Itoa(l.rng.Intn(l.speakers)),
			"doc=d" + strconv.Itoa(l.rng.Intn(l.docs)),
		}
		var annots []string
		attach := func(tok string) {
			for _, a := range annots {
				if a == tok {
					return
				}
			}
			annots = append(annots, tok)
		}
		// The pos layer: near-gold tagging with a little tagger noise.
		if l.rng.Float64() < 0.92 {
			attach("pos:" + w.pos)
		} else {
			attach("pos:" + lingWords[l.rng.Intn(len(lingWords))].pos)
		}
		// The syn layer depends on the pos layer.
		if contains(annots, "pos:det") || contains(annots, "pos:adj") {
			if l.rng.Float64() < 0.85 {
				attach("syn:np")
			}
		} else if contains(annots, "pos:noun") && l.rng.Float64() < 0.6 {
			attach("syn:np")
		} else if contains(annots, "pos:verb") && l.rng.Float64() < 0.65 {
			attach("syn:vp")
		}
		// Prosodic prominence: content words carry stress more often.
		stress := 0.12
		if w.pos == "noun" || w.pos == "verb" || w.pos == "adj" {
			stress = 0.45
		}
		if l.rng.Float64() < stress {
			attach("phon:stress")
		}
		// Discourse layer: fillers are marked as such.
		if w.pos == "filler" && l.rng.Float64() < 0.8 {
			attach("disc:filler")
		}
		out[i] = TokenTuple{Values: values, Annotations: annots}
	}
	return out
}

// Annotations implements Stream: a second annotation pass over the corpus
// (the Cassidy & Bird model is layered annotation added over time), mixing
// syn/phon/disc labels over random word tokens.
func (l *LinguisticStream) Annotations(n, relLen int) []TokenUpdate {
	if relLen <= 0 || n <= 0 {
		return nil
	}
	vocab := []string{
		"syn:np", "syn:vp", "syn:pp", "phon:stress", "phon:pause",
		"disc:filler", "disc:repair",
	}
	out := make([]TokenUpdate, n)
	for i := range out {
		out[i] = TokenUpdate{
			Tuple:      l.rng.Intn(relLen),
			Annotation: vocab[l.rng.Intn(len(vocab))],
		}
	}
	return out
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
