package main

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"annotadb"
	"annotadb/internal/workload"
)

// Shapes of the paper_maintain sequence.
const (
	maintainUpdates = 200 // annotation updates per Case 3 / removal batch
	maintainTuples  = 4   // tuples per Case 1 / Case 2 batch
	remineEvery     = 50  // a timed full re-mine after this many batches
	densityBand     = 0.05
)

type batchKind uint8

const (
	kindCase1 batchKind = iota
	kindCase2
	kindCase3
	kindRemove
	kindRemine
	numKinds
)

var kindNames = [numKinds]string{"case1", "case2", "case3", "remove", "remine"}

// compactUpdate is one annotation update of a pre-generated batch, stored
// small (the list holds millions) and expanded just before the call.
type compactUpdate struct {
	tuple int32
	annot uint8
}

// mbatch is one pre-generated maintenance op.
type mbatch struct {
	kind    batchKind
	tuples  []annotadb.TupleSpec
	updates []compactUpdate
}

func (b mbatch) size() int { return len(b.tuples) + len(b.updates) }

// maintainGen renders paper_maintain's batch sequence over the shared
// annotation model, so no update is skipped and removals undo exactly what an
// earlier batch added.
type maintainGen struct {
	*annotModel
	stream workload.Stream
}

func (g *maintainGen) compact(us []workload.TokenUpdate) []compactUpdate {
	out := make([]compactUpdate, len(us))
	for i, u := range us {
		out[i] = compactUpdate{tuple: int32(u.Tuple), annot: uint8(g.bit[u.Annotation])}
	}
	return out
}

func (g *maintainGen) newTuples(n int, annotated bool) []annotadb.TupleSpec {
	out := make([]annotadb.TupleSpec, n)
	for i, tu := range g.stream.Tuples(n) {
		if !annotated {
			tu.Annotations = nil
		}
		out[i] = annotadb.TupleSpec{Values: tu.Values, Annotations: tu.Annotations}
		g.append(tu.Annotations)
	}
	return out
}

// batches renders n ops: maintenance batches in a repeating eight-step
// cycle — three Case 3 batches, each later undone by a matching removal,
// around one Case 1 and one Case 2 tuple batch — with a full re-mine after
// every remineEvery of them. The unannotated Case 2 tuples would dilute
// annotation density, so the Case 3 batch after them also annotates them at
// the seed density and that part is never removed.
func (g *maintainGen) batches(n int) []mbatch {
	out := make([]mbatch, 0, n)
	var a, b, cTransient []workload.TokenUpdate
	for step := 0; len(out) < n; step++ {
		switch step % 8 {
		case 0:
			a = g.adds(maintainUpdates)
			out = append(out, mbatch{kind: kindCase3, updates: g.compact(a)})
		case 1:
			out = append(out, mbatch{kind: kindCase1, tuples: g.newTuples(maintainTuples, true)})
		case 2:
			b = g.adds(maintainUpdates)
			out = append(out, mbatch{kind: kindCase3, updates: g.compact(b)})
		case 3:
			g.detach(a)
			out = append(out, mbatch{kind: kindRemove, updates: g.compact(a)})
		case 4:
			out = append(out, mbatch{kind: kindCase2, tuples: g.newTuples(maintainTuples, false)})
		case 5:
			var keep []workload.TokenUpdate
			for t := len(g.masks) - maintainTuples; t < len(g.masks); t++ {
				k := int(g.density)
				if g.rng.Float64() < g.density-math.Floor(g.density) {
					k++
				}
				for ; k > 0; k-- {
					keep = append(keep, g.attach(t))
				}
			}
			cTransient = g.adds(maintainUpdates - len(keep))
			out = append(out, mbatch{kind: kindCase3, updates: g.compact(append(keep, cTransient...))})
		case 6:
			g.detach(b)
			out = append(out, mbatch{kind: kindRemove, updates: g.compact(b)})
		case 7:
			g.detach(cTransient)
			out = append(out, mbatch{kind: kindRemove, updates: g.compact(cTransient)})
		}
		if (step+1)%remineEvery == 0 && len(out) < n {
			out = append(out, mbatch{kind: kindRemine})
		}
	}
	return out
}

// expand renders a batch's updates into buf in the root API's form.
func expand(buf []annotadb.AnnotationUpdate, us []compactUpdate, vocab []string) []annotadb.AnnotationUpdate {
	buf = buf[:0]
	for _, u := range us {
		buf = append(buf, annotadb.AnnotationUpdate{Tuple: int(u.tuple), Annotation: vocab[u.annot]})
	}
	return buf
}

// applyBatch runs one batch through the root Engine.
func applyBatch(eng *annotadb.Engine, b mbatch, updates []annotadb.AnnotationUpdate) (annotadb.UpdateReport, error) {
	switch b.kind {
	case kindCase1, kindCase2:
		return eng.AddTuples(b.tuples)
	case kindCase3:
		return eng.AddAnnotations(updates)
	default:
		return eng.RemoveAnnotations(updates)
	}
}

// runMaintain is the paper's Fig. 16 in this benchmark's trajectory: a fixed
// sequence of incremental batches on the root Engine, a timed full re-mine of
// the same relation every remineEvery batches, and Engine.Verify at the end.
func runMaintain(c runConfig) (*workloadResult, error) {
	sp := c.sp
	res := newResult(c)
	res.Clients = 1
	opts := miningOptions(sp)

	var (
		setupSecs []float64
		eng       *annotadb.Engine
		stream    workload.Stream
		base      []workload.TokenTuple
	)
	for k := 0; k < c.setups(); k++ {
		eng = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if stream, err = workload.NewStream(sp.corpus, c.seed); err != nil {
			return nil, err
		}
		base = stream.Base(sp.tuples)
		ds, err := buildDataset(base)
		if err != nil {
			return nil, err
		}
		if eng, err = annotadb.NewEngine(ds, opts); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	res.add("setup_s", "s", medianFloat(setupSecs), len(setupSecs), "")

	model, err := newAnnotModel(base, rand.New(rand.NewSource(c.seed^0x6d61)))
	if err != nil {
		return nil, err
	}
	gen := &maintainGen{annotModel: model, stream: stream}
	total := c.totalOps()
	warm := total / 20
	list := gen.batches(total)
	res.Ops["total"], res.Ops["warmup"], res.Ops["timed"] = total, warm, total-warm
	res.Sizes["seed_tuples"] = sp.tuples
	res.Sizes["seed_rules"] = len(eng.Rules())
	res.Sizes["updates_per_batch"] = maintainUpdates
	res.Sizes["tuples_per_batch"] = maintainTuples
	res.Sizes["remine_every"] = remineEvery

	var (
		lat                           = make([]int64, total)
		perKind                       [numKinds][]int64
		applied                       int
		promoted, discovered, remined int
		m0, m1                        runtime.MemStats
		first                         mark
		updates                       []annotadb.AnnotationUpdate
	)
	for i, b := range list {
		lat[i] = -1
		if i == warm {
			runtime.ReadMemStats(&m0)
			first = markNow()
		}
		timed := i >= warm
		res.Attempted++
		if b.kind == kindRemine {
			start := time.Now()
			mined, err := annotadb.Mine(eng.Dataset(), opts)
			end := time.Now()
			if err != nil {
				res.fail("op %d re-mine: %v", i, err)
				continue
			}
			if !reflect.DeepEqual(mined, eng.Rules()) {
				res.Checks["remine_rule_mismatches"]++
				res.fail("at op %d the maintained rules differ from a full re-mine", i)
				continue
			}
			if timed {
				lat[i] = end.Sub(start).Nanoseconds()
				c.tr.span("facade.mine", "", i, start, end)
			}
			continue
		}
		updates = expand(updates, b.updates, model.vocab)
		start := time.Now()
		rep, err := applyBatch(eng, b, updates)
		end := time.Now()
		if err != nil {
			res.fail("op %d %s: %v", i, kindNames[b.kind], err)
			continue
		}
		if rep.Applied != b.size() {
			res.fail("op %d %s: applied %d of %d", i, kindNames[b.kind], rep.Applied, b.size())
			continue
		}
		if timed {
			lat[i] = end.Sub(start).Nanoseconds()
			c.tr.span("facade.engine_"+kindNames[b.kind], "", i, start, end)
			applied += rep.Applied
			promoted += rep.Promoted
			discovered += rep.Discovered
			if rep.Remined {
				remined++
			}
		}
	}
	last := markNow()
	runtime.ReadMemStats(&m1)

	var batches []int64
	var busy int64
	for i := warm; i < total; i++ {
		if lat[i] < 0 {
			continue
		}
		k := list[i].kind
		perKind[k] = append(perKind[k], lat[i])
		res.Ops[kindNames[k]]++
		if k != kindRemine {
			batches = append(batches, lat[i])
			busy += lat[i]
		}
	}
	okTimed := len(batches) + len(perKind[kindRemine])
	res.reportPhase(first, last, okTimed)
	res.latency("major", 0.95, batches, sp.major)
	res.latency("minor", 0.95, perKind[kindRemine], sp.minor)
	res.add("client.maintain_updates_per_s", "1/s", ratio(float64(applied), float64(busy)/1e9), len(batches), "")
	if len(perKind[kindRemine]) > 0 && len(batches) > 0 {
		res.add("client.remine_speedup", "x", ratio(float64(medianInt64(perKind[kindRemine])), float64(medianInt64(batches))), len(perKind[kindRemine]),
			"median full re-mine / median incremental batch")
	} else {
		res.add("client.remine_speedup", "x", 0, 0, "run too short for a timed re-mine")
	}
	res.add("incremental.remines", "count", float64(remined), len(batches), "")
	res.add("incremental.promotions", "count", float64(promoted), len(batches), "")
	res.add("incremental.discoveries", "count", float64(discovered), len(batches), "")
	res.add("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC), okTimed, "")
	res.add("runtime.gc_pause_total_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC), "")
	res.add("runtime.alloc_mb", "MiB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), okTimed, "")
	for _, m := range serverOnlyMetrics {
		res.na(m.name, m.unit)
	}

	// The paper's exactness contract, and the sequence's own invariant.
	res.Attempted += 2
	if err := eng.Verify(); err != nil {
		res.Checks["verify_failures"]++
		res.fail("Engine.Verify: %v", err)
	}
	st := eng.Dataset().Stats()
	density := ratio(float64(st.Attachments), float64(st.Tuples))
	res.Sizes["final_tuples"] = st.Tuples
	if math.Abs(density/gen.density-1) > densityBand {
		res.Checks["density_out_of_band"]++
		res.fail("annotation density drifted from %.4f to %.4f per tuple", gen.density, density)
	}
	if st.Attachments != gen.attachments {
		res.Checks["model_drift"]++
		res.fail("relation holds %d attachments, the generator's model %d", st.Attachments, gen.attachments)
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.add("peak_rss_mb", "MiB", rss, 1, "")
	res.add("client.failed_frac", "ratio", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted, "")
	res.Correct = res.Failed == 0
	return res, nil
}

// serverOnlyMetrics are the metrics of a served run that paper_maintain, with
// no server, has no operation for.
var serverOnlyMetrics = []metricDef{
	{name: "client.recommend_p50_ms", unit: "ms"}, {name: "client.recommend_p99_ms", unit: "ms"},
	{name: "client.correlate_p50_ms", unit: "ms"}, {name: "client.correlate_p99_ms", unit: "ms"},
	{name: "client.write_ack_p50_ms", unit: "ms"}, {name: "client.write_ack_p99_ms", unit: "ms"},
	{name: "client.event_lag_p50_ms", unit: "ms"}, {name: "client.recover_s", unit: "s"}, {name: "client.wal_bytes_per_update", unit: "B"},
	{name: "stream.events", unit: "count"}, {name: "stream.gaps", unit: "count"}, {name: "stream.events_per_write", unit: "ratio"},
	{name: "serve.stage_queue_us", unit: "us"}, {name: "serve.stage_apply_us", unit: "us"}, {name: "serve.stage_fsync_us", unit: "us"}, {name: "serve.stage_publish_us", unit: "us"},
	{name: "serve.coalesce_ratio", unit: "ratio", higher: true}, {name: "serve.shed", unit: "count"},
	{name: "correlate.index_builds", unit: "count"}, {name: "correlate.cache_hit_ratio", unit: "ratio", higher: true},
	{name: "wal.syncs", unit: "count"}, {name: "wal.records", unit: "count"}, {name: "wal.updates_per_sync", unit: "ratio", higher: true},
}
