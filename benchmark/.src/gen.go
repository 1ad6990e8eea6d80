package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"annotadb"
	"annotadb/internal/workload"
)

// buildDataset interns the base corpus into a fresh root Dataset.
func buildDataset(base []workload.TokenTuple) (*annotadb.Dataset, error) {
	ds := annotadb.NewDataset()
	for i, tu := range base {
		if _, err := ds.AddTuple(tu.Values, tu.Annotations); err != nil {
			return nil, fmt.Errorf("seed tuple %d: %w", i, err)
		}
	}
	return ds, nil
}

// op is one pre-generated request: arg indexes the class's table in opList
// (tuple position, anchor, or write body).
type op struct {
	class opClass
	arg   int32
}

// opList is a workload's fixed work. Everything a client sends is rendered
// here, before the clock starts, so the timed loop does no generation.
type opList struct {
	ops []op
	// recommendPaths[i] is the request path for tuple i; anchors/anchorPaths
	// the correlate anchors and their paths.
	recommendPaths []string
	anchors        []string
	anchorPaths    []string
	// bodies holds the JSON body of each write op; updates counts the user
	// updates (annotation attachments or tuples) it carries.
	bodies  [][]byte
	updates []int
	counts  [numClasses]int
	// wantTuples and wantAttachments are the relation's size once every op
	// has been applied exactly once.
	wantTuples, wantAttachments int
}

type annotationsBody struct {
	Updates []updateBody `json:"updates"`
	Remove  bool         `json:"remove,omitempty"`
}

type updateBody struct {
	Tuple      int    `json:"tuple"`
	Annotation string `json:"annotation"`
}

type tuplesBody struct {
	Tuples []tupleBody `json:"tuples"`
}

type tupleBody struct {
	Values      []string `json:"values"`
	Annotations []string `json:"annotations"`
}

// anchorsOf returns the distinct tokens of the base corpus, sorted: every
// one is a valid /correlate anchor on every generation (tokens are never
// forgotten), so no anchor query can miss.
func anchorsOf(base []workload.TokenTuple) []string {
	seen := map[string]bool{}
	for _, tu := range base {
		for _, t := range tu.Values {
			seen[t] = true
		}
		for _, t := range tu.Annotations {
			seen[t] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// removeLag is how many POST /annotations attach batches are outstanding
// before the list starts detaching the oldest, and how many detached batches
// cool down before their pairs may be attached again. Ops next to each other
// in the list are in flight together on different connections and the server
// applies them in arrival order, so two ops that touch the same pair must be
// far more than the ops in flight apart, in both directions: a removal must
// not overtake the batch it undoes, and a re-attach must not overtake the
// removal before it (it would be dropped as a duplicate, the removal would
// then take the pair away, and a correct server would end one attachment
// short of the model).
const removeLag = 32

// genOps renders n ops of the workload's mix. Class choice, tuple positions
// and anchors come from rng; new tuples continue the corpus stream past its
// Base call, like the load harness. POST /annotations alternates between
// attaching a batch of new (tuple, annotation) pairs and detaching the batch
// attached removeLag batches earlier, so the relation's annotation density —
// and with it the rule set's size and the cost of every op — is the same at
// the end of the list as at its start, however long the list is. A detached
// pair stays marked in the model, and so out of attach's reach, until
// removeLag more batches have been detached. Annotation
// targets stay inside the base relation, so an update can never name a tuple
// that a concurrently running POST /tuples has not appended yet.
func genOps(sp spec, n int, base []workload.TokenTuple, stream workload.Stream, rng *rand.Rand) (*opList, error) {
	model, err := newAnnotModel(base, rng)
	if err != nil {
		return nil, err
	}
	model.limit = len(base)
	var pending, cooling [][]workload.TokenUpdate
	l := &opList{ops: make([]op, 0, n)}
	l.recommendPaths = make([]string, len(base))
	for i := range base {
		l.recommendPaths[i] = "/recommend?tuple=" + strconv.Itoa(i)
	}
	l.anchors = anchorsOf(base)
	l.anchorPaths = make([]string, len(l.anchors))
	for i, a := range l.anchors {
		l.anchorPaths[i] = "/correlate?anchor=" + url.QueryEscape(a)
	}
	for i := 0; i < n; i++ {
		r := rng.Intn(100)
		class := opClass(0)
		for acc := 0; class < numClasses; class++ {
			acc += sp.mix[class]
			if r < acc {
				break
			}
		}
		var arg int
		switch class {
		case opRecommend:
			arg = rng.Intn(len(base))
		case opCorrelate:
			arg = rng.Intn(len(l.anchors))
		case opAnnotations:
			var body annotationsBody
			var batch []workload.TokenUpdate
			if len(pending) >= removeLag {
				batch, pending = pending[0], pending[1:]
				body.Remove = true
				cooling = append(cooling, batch)
				if len(cooling) > removeLag {
					model.detach(cooling[0])
					cooling = cooling[1:]
				}
			} else {
				batch = model.adds(annotationsPerOp)
				pending = append(pending, batch)
			}
			for _, u := range batch {
				body.Updates = append(body.Updates, updateBody{Tuple: u.Tuple, Annotation: u.Annotation})
			}
			arg = l.addBody(body, len(body.Updates))
		case opTuples:
			var body tuplesBody
			for _, tu := range stream.Tuples(tuplesPerOp) {
				body.Tuples = append(body.Tuples, tupleBody{Values: tu.Values, Annotations: tu.Annotations})
				model.append(tu.Annotations)
			}
			arg = l.addBody(body, len(body.Tuples))
		default:
			return nil, fmt.Errorf("workload %s: mix sums below 100", sp.name)
		}
		l.ops = append(l.ops, op{class: class, arg: int32(arg)})
		l.counts[class]++
	}
	for _, batch := range cooling {
		model.detach(batch)
	}
	l.wantTuples, l.wantAttachments = len(model.masks), model.attachments
	return l, nil
}

func (l *opList) addBody(v any, updates int) int {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err) // plain structs of strings and ints always encode
	}
	l.bodies = append(l.bodies, buf.Bytes())
	l.updates = append(l.updates, updates)
	return len(l.bodies) - 1
}

// annotModel models a relation's annotation state — one bit per annotation
// token per tuple — so every generated attachment is new and every removal
// names a present one: no update is skipped as a duplicate, and a removal
// undoes exactly what an earlier batch attached.
type annotModel struct {
	rng   *rand.Rand
	vocab []string
	bit   map[string]int
	masks []uint64
	// limit, when positive, keeps attach's random targets below it.
	limit int
	// density is the seed's attachments per tuple; attachments tracks the
	// model's current total.
	density     float64
	attachments int
}

func newAnnotModel(base []workload.TokenTuple, rng *rand.Rand) (*annotModel, error) {
	g := &annotModel{rng: rng, bit: map[string]int{}}
	for _, tu := range base {
		for _, a := range tu.Annotations {
			g.bit[a] = 0
		}
	}
	for a := range g.bit {
		g.vocab = append(g.vocab, a)
	}
	sort.Strings(g.vocab)
	if len(g.vocab) == 0 || len(g.vocab) > 64 {
		return nil, fmt.Errorf("corpus has %d annotation tokens; the generator models 1 to 64", len(g.vocab))
	}
	for i, a := range g.vocab {
		g.bit[a] = i
	}
	for _, tu := range base {
		g.append(tu.Annotations)
	}
	g.density = float64(g.attachments) / float64(len(base))
	return g, nil
}

// append models one appended tuple.
func (g *annotModel) append(annots []string) {
	var m uint64
	for _, a := range annots {
		if b, ok := g.bit[a]; ok && m&(1<<b) == 0 {
			m |= 1 << b
			g.attachments++
		}
	}
	g.masks = append(g.masks, m)
}

// attach picks a (tuple, annotation) pair that is absent — on tuple t when
// t >= 0, on a random tuple otherwise — and marks it present.
func (g *annotModel) attach(t int) workload.TokenUpdate {
	n := len(g.masks)
	if g.limit > 0 {
		n = g.limit
	}
	for {
		tu := t
		if tu < 0 {
			tu = g.rng.Intn(n)
		}
		b := g.rng.Intn(len(g.vocab))
		if g.masks[tu]&(1<<b) != 0 {
			continue
		}
		g.masks[tu] |= 1 << b
		g.attachments++
		return workload.TokenUpdate{Tuple: tu, Annotation: g.vocab[b]}
	}
}

func (g *annotModel) detach(us []workload.TokenUpdate) {
	for _, u := range us {
		g.masks[u.Tuple] &^= 1 << g.bit[u.Annotation]
		g.attachments--
	}
}

// adds attaches n new pairs on random tuples.
func (g *annotModel) adds(n int) []workload.TokenUpdate {
	out := make([]workload.TokenUpdate, n)
	for i := range out {
		out[i] = g.attach(-1)
	}
	return out
}
