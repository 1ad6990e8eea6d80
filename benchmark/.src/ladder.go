package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"strings"
	"time"

	"annotadb"
	"annotadb/internal/correlate"
	"annotadb/internal/httpapi"
	"annotadb/internal/incremental"
	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/predict"
	"annotadb/internal/relation"
	"annotadb/internal/serve"
	"annotadb/internal/shard"
	"annotadb/internal/storage"
	"annotadb/internal/stream"
	"annotadb/internal/wal"
	"annotadb/internal/workload"
)

// Sample counts of the per-layer probes (scaled down by the smoke test).
const (
	ladderReads      = 2000
	ladderCorrelates = 500
	ladderWrites     = 150
	ladderTupleOps   = 100
	ladderSmall      = 200 // microsecond-scale one-off calls
	ladderFew        = 5   // millisecond-scale calls: mine, bootstrap, checkpoint
)

// perLayer lists every metric a traced run reports, in BENCHMARK.json's
// per_layer order: the client's per-class view and the stack's own counters
// from the traced client pass, then the ladder's timed calls into each layer.
var perLayer = []metricDef{
	{name: "client.recommend_p50_ms", unit: "ms"}, {name: "client.recommend_p99_ms", unit: "ms"},
	{name: "client.correlate_p50_ms", unit: "ms"}, {name: "client.correlate_p99_ms", unit: "ms"},
	{name: "client.write_ack_p50_ms", unit: "ms"}, {name: "client.write_ack_p99_ms", unit: "ms"},
	{name: "client.event_lag_p50_ms", unit: "ms"}, {name: "client.recover_s", unit: "s"}, {name: "client.wal_bytes_per_update", unit: "B"},
	{name: "client.maintain_updates_per_s", unit: "1/s", higher: true}, {name: "client.remine_speedup", unit: "x", higher: true}, {name: "client.failed_frac", unit: "ratio"},
	{name: "predict.for_tuple_us", unit: "us"}, {name: "predict.compile_us", unit: "us"},
	{name: "serve.recommend_us", unit: "us"}, {name: "serve.write_us", unit: "us"},
	{name: "serve.stage_queue_us", unit: "us"}, {name: "serve.stage_apply_us", unit: "us"}, {name: "serve.stage_fsync_us", unit: "us"}, {name: "serve.stage_publish_us", unit: "us"},
	{name: "serve.coalesce_ratio", unit: "ratio", higher: true}, {name: "serve.shed", unit: "count"},
	{name: "facade.recommend_us", unit: "us"}, {name: "facade.correlate_us", unit: "us"}, {name: "facade.write_us", unit: "us"},
	{name: "httpapi.recommend_us", unit: "us"}, {name: "httpapi.correlate_us", unit: "us"}, {name: "httpapi.write_us", unit: "us"},
	{name: "httpapi.recommend_allocs_op", unit: "count"}, {name: "httpapi.recommend_resp_bytes", unit: "B"},
	{name: "net.recommend_us", unit: "us"}, {name: "net.correlate_us", unit: "us"}, {name: "net.write_us", unit: "us"},
	{name: "correlate.topk_us", unit: "us"}, {name: "correlate.index_build_ms", unit: "ms"}, {name: "correlate.merge_us", unit: "us"},
	{name: "correlate.index_builds", unit: "count"}, {name: "correlate.cache_hit_ratio", unit: "ratio", higher: true},
	{name: "relation.apply_updates_us", unit: "us"}, {name: "relation.view_capture_ns", unit: "ns"},
	{name: "incremental.case1_us", unit: "us"}, {name: "incremental.case2_us", unit: "us"}, {name: "incremental.case3_us", unit: "us"}, {name: "incremental.remove_us", unit: "us"},
	{name: "incremental.bootstrap_ms", unit: "ms"}, {name: "incremental.verify_ms", unit: "ms"},
	{name: "incremental.remines", unit: "count"}, {name: "incremental.promotions", unit: "count"}, {name: "incremental.discoveries", unit: "count"},
	{name: "mining.apriori_ms", unit: "ms"}, {name: "mining.fpgrowth_ms", unit: "ms"},
	{name: "rules.freeze_us", unit: "us"},
	{name: "wal.log_us", unit: "us"}, {name: "wal.seal_us", unit: "us"},
	{name: "wal.syncs", unit: "count"}, {name: "wal.records", unit: "count"}, {name: "wal.updates_per_sync", unit: "ratio", higher: true},
	{name: "wal.checkpoint_ms", unit: "ms"}, {name: "wal.replay_ms", unit: "ms"},
	{name: "storage.checkpoint_bytes", unit: "B"}, {name: "storage.checkpoint_read_ms", unit: "ms"},
	{name: "stream.diff_us", unit: "us"}, {name: "stream.publish_us", unit: "us"},
	{name: "stream.events", unit: "count"}, {name: "stream.gaps", unit: "count"}, {name: "stream.events_per_write", unit: "ratio"},
	{name: "shard.write_us", unit: "us"}, {name: "shard.recommend_us", unit: "us"},
	{name: "workload.generate_ms", unit: "ms"},
	{name: "runtime.gc_cycles", unit: "count"}, {name: "runtime.gc_pause_total_ms", unit: "ms"}, {name: "runtime.alloc_mb", unit: "MiB"},
	{name: "trace.overhead_frac", unit: "ratio"},
}

// rung is one ladder: the same op list replayed one layer higher per step.
// A layer's self time is its rung's median minus the rung below.
var ladders = map[string][]string{
	"recommend": {"predict.for_tuple_us", "serve.recommend_us", "facade.recommend_us", "httpapi.recommend_us", "net.recommend_us"},
	"correlate": {"correlate.topk_us", "facade.correlate_us", "httpapi.correlate_us", "net.correlate_us"},
	"write":     {"relation.apply_updates_us", "incremental.case3_us", "serve.write_us", "facade.write_us", "httpapi.write_us", "net.write_us"},
}

// ladderRun carries one traced run's probe state.
type ladderRun struct {
	c    runConfig
	res  *workloadResult
	cfg  mining.Config
	base []workload.TokenTuple
	err  error
	dirs []string
}

func (l *ladderRun) fail(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// n scales a probe's sample count.
func (l *ladderRun) n(full int) int {
	return max(int(float64(full)*min(l.c.scale*10, 1)), 3)
}

// probe times fn(i) for i in [0, n), recording one span per call.
func (l *ladderRun) probe(name, parent string, n int, fn func(i int)) []int64 {
	d := make([]int64, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn(i)
		end := time.Now()
		d[i] = end.Sub(start).Nanoseconds()
		l.c.tr.span(name, parent, i, start, end)
	}
	return d
}

// timed probes fn n times and reports the median as the named metric; the
// spans carry the metric's name without its unit suffix.
func (l *ladderRun) timed(metric, unit, parent string, n int, fn func(i int)) []int64 {
	d := l.probe(strings.TrimSuffix(metric, "_"+unit), parent, n, fn)
	l.median(metric, unit, d)
	return d
}

// median reports the median of a probe's durations as the named metric.
func (l *ladderRun) median(name, unit string, d []int64) {
	conv := map[string]func(int64) float64{"ns": func(v int64) float64 { return float64(v) }, "us": nsToUs, "ms": nsToMs}[unit]
	l.res.add(name, unit, conv(medianInt64(d)), len(d), "")
}

func (l *ladderRun) tempDir(tag string) string {
	dir := l.c.dataDir("ladder-" + tag)
	l.dirs = append(l.dirs, dir)
	return dir
}

func (l *ladderRun) relation() *relation.Relation {
	rel, err := workload.BuildRelation(l.base)
	l.fail(err)
	return rel
}

func (l *ladderRun) engine() *incremental.Engine {
	eng, err := incremental.New(l.relation(), l.cfg, incremental.Options{})
	l.fail(err)
	return eng
}

// facade boots the root Server over an identically seeded dataset: in-memory
// when dir is empty, durable (the write_heavy_durable configuration) otherwise.
func (l *ladderRun) facade(dir string) *annotadb.Server {
	ds, err := buildDataset(l.base)
	l.fail(err)
	sp := l.c.sp
	sp.shards, sp.durable = 0, dir != ""
	srv, err := openServer(sp, ds, dir)
	l.fail(err)
	return srv
}

func internUpdates(dict *relation.Dictionary, us []workload.TokenUpdate) ([]relation.AnnotationUpdate, error) {
	out := make([]relation.AnnotationUpdate, len(us))
	for i, u := range us {
		it, err := dict.InternAnnotation(u.Annotation)
		if err != nil {
			return nil, err
		}
		out[i] = relation.AnnotationUpdate{Index: u.Tuple, Annotation: it}
	}
	return out, nil
}

func internTuples(dict *relation.Dictionary, tus []workload.TokenTuple, annotated bool) ([]relation.Tuple, error) {
	out := make([]relation.Tuple, len(tus))
	for i, tu := range tus {
		var items []itemset.Item
		for _, tok := range tu.Values {
			it, err := dict.InternData(tok)
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		}
		for _, tok := range tu.Annotations {
			if !annotated {
				break
			}
			it, err := dict.InternAnnotation(tok)
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		}
		out[i] = relation.NewTuple(items...)
	}
	return out, nil
}

// ladder measures every layer from outside, on stacks seeded like the
// workload's: the read and write paths as ladders (each rung replays the same
// inputs one layer higher), the rest as isolated timed calls.
func ladder(c runConfig, res *workloadResult) error {
	sp := c.sp
	l := &ladderRun{c: c, res: res, cfg: mining.Config{MinSupport: sp.minSup, MinConfidence: sp.minConf}}
	defer func() {
		for _, d := range l.dirs {
			os.RemoveAll(d) //nolint:errcheck
		}
	}()
	ctx := context.Background()

	// workload.generate_ms: the corpus, as set-up pays for it.
	var src workload.Stream
	l.timed("workload.generate_ms", "ms", "", l.n(ladderFew), func(int) {
		var err error
		src, err = workload.NewStream(sp.corpus, c.seed)
		l.fail(err)
		l.base = src.Base(sp.tuples)
		l.relation()
	})
	if l.err != nil {
		return l.err
	}

	// The shared inputs of every rung.
	rng := rand.New(rand.NewSource(c.seed ^ 0x6c61))
	reads := make([]int, l.n(ladderReads))
	for i := range reads {
		reads[i] = rng.Intn(len(l.base))
	}
	anchors := anchorsOf(l.base)
	queries := make([]string, l.n(ladderCorrelates))
	for i := range queries {
		queries[i] = anchors[rng.Intn(len(anchors))]
	}
	model, err := newAnnotModel(l.base, rng)
	if err != nil {
		return err
	}
	writes := make([][]workload.TokenUpdate, l.n(ladderWrites))
	for i := range writes {
		writes[i] = model.adds(annotationsPerOp) // 16 attachments, all new
	}
	tupleOps := make([][]workload.TokenTuple, l.n(ladderTupleOps))
	for i := range tupleOps {
		tupleOps[i] = src.Tuples(tuplesPerOp)
	}

	l.mining()
	core := l.readLadder(ctx, reads, queries)
	l.writeLadder(ctx, core, writes, tupleOps)
	l.sharded(ctx, reads, queries, writes)
	l.durability(writes)
	if l.err != nil {
		return l.err
	}
	l.selfTimes()
	return nil
}

// mining times the bootstrap and the two full miners.
func (l *ladderRun) mining() {
	rel := l.relation()
	for name, alg := range map[string]mining.Algorithm{"mining.apriori_ms": mining.AlgorithmApriori, "mining.fpgrowth_ms": mining.AlgorithmFPGrowth} {
		cfg := l.cfg
		cfg.Algorithm = alg
		l.timed(name, "ms", "", l.n(ladderFew), func(int) {
			_, err := mining.Mine(rel, cfg)
			l.fail(err)
		})
	}
	var eng *incremental.Engine
	l.timed("incremental.bootstrap_ms", "ms", "", l.n(ladderFew), func(int) {
		rel := l.relation() // the build is inside the span, like workload.generate, and small beside the mine
		var err error
		eng, err = incremental.New(rel, l.cfg, incremental.Options{})
		l.fail(err)
	})
	if l.err != nil {
		return
	}
	l.timed("incremental.verify_ms", "ms", "", l.n(ladderFew), func(int) { l.fail(eng.Verify()) })
	set := eng.Rules()
	l.timed("rules.freeze_us", "us", "", l.n(ladderSmall), func(int) { set.Freeze() })
}

// readLadder climbs the recommend and correlate paths: predict/correlate on
// the serving core's snapshot, the core, the facade, the handler without a
// socket, and the loopback round trip. It returns the core for the write
// ladder's publish-stage probes.
func (l *ladderRun) readLadder(ctx context.Context, reads []int, queries []string) *serve.Server {
	core := serve.New(l.engine(), serve.Config{BatchWindow: time.Millisecond})
	if l.err != nil {
		return core
	}
	snap := core.Snapshot()
	l.timed("predict.compile_us", "us", "", l.n(ladderSmall), func(int) {
		predict.Compile(snap.Rules, predict.Options{})
	})
	l.timed("predict.for_tuple_us", "us", "serve.recommend", len(reads), func(i int) {
		tu, err := snap.View.Tuple(reads[i])
		l.fail(err)
		snap.Compiled.ForTupleAt(tu, reads[i])
	})
	l.timed("serve.recommend_us", "us", "facade.recommend", len(reads), func(i int) {
		_, _, err := core.Recommend(reads[i])
		l.fail(err)
	})
	l.timed("correlate.index_build_ms", "ms", "", l.n(ladderFew), func(int) {
		correlate.NewIndex(snap.View)
	})
	idx := correlate.NewIndex(snap.View)
	l.timed("correlate.topk_us", "us", "facade.correlate", len(queries), func(i int) {
		_, err := idx.TopK(correlate.Query{Anchor: queries[i], K: correlate.DefaultK, MinLift: correlate.DefaultMinLift})
		l.fail(err)
	})

	srv := l.facade("")
	if l.err != nil {
		return core
	}
	st, err := listen(srv)
	if err != nil {
		l.fail(err)
		closeServer(srv) //nolint:errcheck
		return core
	}
	defer st.close() //nolint:errcheck
	l.timed("facade.recommend_us", "us", "httpapi.recommend", len(reads), func(i int) {
		_, _, err := srv.RecommendAt(reads[i])
		l.fail(err)
	})
	l.timed("facade.correlate_us", "us", "httpapi.correlate", len(queries), func(i int) {
		_, _, err := srv.Correlate(queries[i], 0, 0)
		l.fail(err)
	})

	// The handler without a socket. Requests and recorders are built before
	// the clock starts, so the span holds parse, gate, facade and encode.
	handler := st.httpSrv.Handler
	recReqs, recRecs := make([]*http.Request, len(reads)), make([]*httptest.ResponseRecorder, len(reads))
	for i, idx := range reads {
		recReqs[i] = httptest.NewRequest(http.MethodGet, "/recommend?tuple="+fmt.Sprint(idx), nil)
		recRecs[i] = httptest.NewRecorder()
	}
	l.timed("httpapi.recommend_us", "us", "net.recommend", len(reads), func(i int) {
		handler.ServeHTTP(recRecs[i], recReqs[i])
	})
	var bodyBytes int
	for _, rec := range recRecs {
		if rec.Code != http.StatusOK {
			l.fail(fmt.Errorf("handler /recommend: status %d", rec.Code))
		}
		bodyBytes += rec.Body.Len()
	}
	l.res.add("httpapi.recommend_resp_bytes", "B", ratio(float64(bodyBytes), float64(len(reads))), len(reads), "mean body length")
	// Allocations per handled request, on a second pass without spans.
	for i := range recRecs {
		recRecs[i] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reads {
		handler.ServeHTTP(recRecs[i], recReqs[i])
	}
	runtime.ReadMemStats(&m1)
	l.res.add("httpapi.recommend_allocs_op", "count", ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(reads))), len(reads), "")

	corReqs, corRecs := make([]*http.Request, len(queries)), make([]*httptest.ResponseRecorder, len(queries))
	for i, a := range queries {
		corReqs[i] = httptest.NewRequest(http.MethodGet, "/correlate?anchor="+url.QueryEscape(a), nil)
		corRecs[i] = httptest.NewRecorder()
	}
	l.timed("httpapi.correlate_us", "us", "net.correlate", len(queries), func(i int) {
		handler.ServeHTTP(corRecs[i], corReqs[i])
	})
	for _, rec := range corRecs {
		if rec.Code != http.StatusOK {
			l.fail(fmt.Errorf("handler /correlate: status %d", rec.Code))
		}
	}

	// The loopback round trip, one client. The recommend rung runs twice,
	// with and without span recording: their throughput ratio is the
	// tracing overhead.
	get := func(hc *http.Client, path string) {
		resp, err := hc.Get(st.url + path)
		if err != nil {
			l.fail(err)
			return
		}
		drainBody(resp)
		if resp.StatusCode != http.StatusOK {
			l.fail(fmt.Errorf("GET %s: status %d", path, resp.StatusCode))
		}
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	get(hc, "/healthz") // open the connection before timing
	l.timed("net.recommend_us", "us", "", len(reads), func(i int) {
		get(hc, "/recommend?tuple="+fmt.Sprint(reads[i]))
	})
	// Tracing overhead: the same rung again in blocks, alternately with and
	// without span recording. Each traced block is compared with the untraced
	// one after it and the median ratio is reported, so neither drift in the
	// machine's speed nor one block hit by a GC cycle decides the number.
	const block = 100
	var ratios []float64
	for from := 0; from+2*block <= len(reads); from += 2 * block {
		t0 := time.Now()
		l.probe("net.recommend.overhead", "", block, func(i int) { get(hc, "/recommend?tuple="+fmt.Sprint(reads[from+i])) })
		traced := time.Since(t0)
		t0 = time.Now()
		for _, idx := range reads[from+block : from+2*block] {
			get(hc, "/recommend?tuple="+fmt.Sprint(idx))
		}
		ratios = append(ratios, ratio(float64(time.Since(t0)), float64(traced)))
	}
	overhead := 0.0
	if len(ratios) > 0 {
		overhead = 1 - medianFloat(ratios)
	}
	l.res.add("trace.overhead_frac", "ratio", overhead, len(ratios)*2*block,
		"1 - untraced/traced time of net.recommend, median over alternating 100-op blocks; negative means noise exceeds the overhead")
	l.timed("net.correlate_us", "us", "", len(queries), func(i int) {
		get(hc, "/correlate?anchor="+url.QueryEscape(queries[i]))
	})
	return core
}

// writeLadder climbs the write path with one 16-update batch list: the
// relation, the engine, the in-memory serving core, then the durable facade,
// its handler and the loopback round trip — each rung on its own identically
// seeded stack, since a write changes the state it runs on.
func (l *ladderRun) writeLadder(ctx context.Context, core *serve.Server, writes [][]workload.TokenUpdate, tupleOps [][]workload.TokenTuple) {
	defer core.Close(ctx) //nolint:errcheck
	if l.err != nil {
		return
	}
	resolve := func(dict *relation.Dictionary) [][]relation.AnnotationUpdate {
		out := make([][]relation.AnnotationUpdate, len(writes))
		for i, w := range writes {
			var err error
			out[i], err = internUpdates(dict, w)
			l.fail(err)
		}
		return out
	}

	rel := l.relation()
	batches := resolve(rel.Dictionary())
	var capture []int64
	l.timed("relation.apply_updates_us", "us", "incremental.case3", len(batches), func(i int) {
		_, _, err := rel.ApplyUpdates(batches[i])
		l.fail(err)
	})
	rel = l.relation()
	batches = resolve(rel.Dictionary())
	for i := range batches {
		_, _, err := rel.ApplyUpdates(batches[i])
		l.fail(err)
		start := time.Now()
		rel.View()
		end := time.Now()
		capture = append(capture, end.Sub(start).Nanoseconds())
		l.c.tr.span("relation.view_capture", "", i, start, end)
	}
	l.median("relation.view_capture_ns", "ns", capture)

	eng := l.engine()
	if l.err != nil {
		return
	}
	dict := eng.Relation().Dictionary()
	batches = resolve(dict)
	l.timed("incremental.case3_us", "us", "serve.write", len(batches), func(i int) {
		_, err := eng.AddAnnotations(batches[i])
		l.fail(err)
	})
	// Removals undo the Case 3 batches, newest first, so each names present
	// attachments.
	l.timed("incremental.remove_us", "us", "", len(batches), func(i int) {
		_, err := eng.RemoveAnnotations(batches[len(batches)-1-i])
		l.fail(err)
	})
	for _, k := range []struct {
		name      string
		annotated bool
	}{{"incremental.case1", true}, {"incremental.case2", false}} {
		tuples := make([][]relation.Tuple, len(tupleOps))
		for i, tu := range tupleOps {
			var err error
			tuples[i], err = internTuples(dict, tu, k.annotated)
			l.fail(err)
		}
		l.timed(k.name+"_us", "us", "", len(tuples), func(i int) {
			var err error
			if k.annotated {
				_, err = eng.AddAnnotatedTuples(tuples[i])
			} else {
				_, err = eng.AddUnannotatedTuples(tuples[i])
			}
			l.fail(err)
		})
	}

	// The in-memory serving core (queue, coalescing linger, apply, publish),
	// with the publish stage's own pieces timed on its generations.
	batches = resolve(core.Snapshot().View.Dictionary())
	prev := core.Snapshot()
	l.timed("serve.write_us", "us", "facade.write", len(batches), func(i int) {
		_, err := core.AddAnnotations(ctx, batches[i])
		l.fail(err)
	})
	next := core.Snapshot()
	pv := stream.TierViews{Valid: prev.Rules, Candidates: prev.Candidates}
	nv := stream.TierViews{Valid: next.Rules, Candidates: next.Candidates}
	vdict := next.View.Dictionary()
	l.timed("stream.diff_us", "us", "", l.n(ladderSmall), func(int) { stream.Diff(pv, nv, vdict) })
	events := stream.Diff(pv, nv, vdict)
	broker := stream.NewBroker(stream.Options{})
	subCtx, cancel := context.WithCancel(ctx)
	sub, err := broker.Subscribe(subCtx, stream.SubscribeOptions{})
	l.fail(err)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if sub != nil {
			for range sub.Events {
			}
		}
	}()
	if len(events) == 0 {
		l.res.add("stream.publish_us", "us", 0, 0, "the write batches churned no rule: nothing to publish")
	} else {
		l.timed("stream.publish_us", "us", "", l.n(ladderSmall), func(i int) {
			l.fail(broker.Publish(0, uint64(i+1), append([]stream.Event(nil), events...)))
		})
	}
	cancel()
	l.fail(broker.Close())
	<-drained

	// The durable facade and the two transport rungs above it.
	bodies := make([][]byte, len(writes))
	for i, w := range writes {
		var body annotationsBody
		for _, u := range w {
			body.Updates = append(body.Updates, updateBody{Tuple: u.Tuple, Annotation: u.Annotation})
		}
		var err error
		bodies[i], err = json.Marshal(body)
		l.fail(err)
	}
	srv := l.facade(l.tempDir("facade"))
	if l.err != nil {
		return
	}
	l.timed("facade.write_us", "us", "httpapi.write", len(writes), func(i int) {
		batch := make([]annotadb.AnnotationUpdate, len(writes[i]))
		for k, u := range writes[i] {
			batch[k] = annotadb.AnnotationUpdate{Tuple: u.Tuple, Annotation: u.Annotation}
		}
		_, err := srv.AddAnnotations(ctx, batch)
		l.fail(err)
	})
	l.fail(closeServer(srv))

	srv = l.facade(l.tempDir("handler"))
	if l.err != nil {
		return
	}
	handler := httpapi.New(srv, ctx)
	reqs, recs := make([]*http.Request, len(writes)), make([]*httptest.ResponseRecorder, len(writes))
	for i := range writes {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/annotations", bytes.NewReader(bodies[i]))
		reqs[i].Header.Set("Content-Type", "application/json")
		recs[i] = httptest.NewRecorder()
	}
	l.timed("httpapi.write_us", "us", "net.write", len(writes), func(i int) {
		handler.ServeHTTP(recs[i], reqs[i])
	})
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			l.fail(fmt.Errorf("handler /annotations: status %d: %s", rec.Code, rec.Body.String()))
		}
	}
	l.fail(closeServer(srv))

	srv = l.facade(l.tempDir("net"))
	if l.err != nil {
		return
	}
	st, err := listen(srv)
	if err != nil {
		l.fail(err)
		closeServer(srv) //nolint:errcheck
		return
	}
	defer st.close() //nolint:errcheck
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	if resp, err := hc.Get(st.url + "/healthz"); err == nil {
		drainBody(resp)
	}
	l.timed("net.write_us", "us", "", len(writes), func(i int) {
		resp, err := hc.Post(st.url+"/annotations", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			l.fail(err)
			return
		}
		drainBody(resp)
		if resp.StatusCode != http.StatusOK {
			l.fail(fmt.Errorf("POST /annotations: status %d", resp.StatusCode))
		}
	})
}

// sharded times the two-shard router: its read, its write, and the merged
// top-K over its per-shard correlate indexes.
func (l *ladderRun) sharded(ctx context.Context, reads []int, queries []string, writes [][]workload.TokenUpdate) {
	if l.err != nil {
		return
	}
	router, err := shard.NewRouter(l.relation(), func(rel *relation.Relation) (*incremental.Engine, error) {
		return incremental.New(rel, l.cfg, incremental.Options{})
	}, shard.Config{Shards: 2, Serve: serve.Config{BatchWindow: time.Millisecond}})
	if err != nil {
		l.fail(err)
		return
	}
	defer router.Close(ctx) //nolint:errcheck
	l.timed("shard.recommend_us", "us", "", len(reads), func(i int) {
		_, _, err := router.Recommend(reads[i])
		l.fail(err)
	})
	snaps := router.Snapshots()
	idxs := make([]*correlate.Index, len(snaps))
	for i, sn := range snaps {
		idxs[i] = correlate.NewIndex(sn.Snap.View)
	}
	l.timed("correlate.merge_us", "us", "", len(queries), func(i int) {
		_, err := correlate.TopKMerged(idxs, correlate.Query{Anchor: queries[i], K: correlate.DefaultK, MinLift: correlate.DefaultMinLift})
		l.fail(err)
	})
	l.timed("shard.write_us", "us", "", len(writes), func(i int) {
		batch := make([]shard.Update, len(writes[i]))
		for k, u := range writes[i] {
			batch[k] = shard.Update{Tuple: u.Tuple, Annotation: u.Annotation}
		}
		_, err := router.AddAnnotations(ctx, batch)
		l.fail(err)
	})
}

// durability times the WAL store from outside: an fsync'd append, the
// covering fsync of a group commit, a checkpoint, reading it back, and the
// reopen of a crash image (seed checkpoint plus the logged tail).
func (l *ladderRun) durability(writes [][]workload.TokenUpdate) {
	if l.err != nil {
		return
	}
	open := func(dir string, flush time.Duration) *wal.Store {
		store, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways, FlushWindow: flush, CheckpointBytes: -1},
			l.cfg, incremental.Options{}, func() (*relation.Relation, error) { return workload.BuildRelation(l.base) })
		l.fail(err)
		return store
	}
	resolve := func(store *wal.Store) [][]relation.AnnotationUpdate {
		out := make([][]relation.AnnotationUpdate, len(writes))
		for i, w := range writes {
			var err error
			out[i], err = internUpdates(store.Engine().Relation().Dictionary(), w)
			l.fail(err)
		}
		return out
	}

	dir := l.tempDir("wal")
	store := open(dir, 0)
	if l.err != nil {
		return
	}
	batches := resolve(store)
	l.timed("wal.log_us", "us", "", len(batches), func(i int) {
		l.fail(store.LogAnnotations(batches[i], false))
	})
	l.fail(store.Close())

	// The crash image: what the store above left behind, reopened.
	ckPath := wal.CheckpointPath(dir)
	read := l.timed("storage.checkpoint_read_ms", "ms", "", l.n(ladderFew), func(int) {
		_, err := storage.ReadCheckpointFile(ckPath)
		l.fail(err)
	})
	if info, err := os.Stat(ckPath); err != nil {
		l.fail(err)
	} else {
		l.res.add("storage.checkpoint_bytes", "B", float64(info.Size()), 1, "")
	}
	var replay []int64
	for k := 0; k < l.n(ladderFew); k++ {
		img := l.tempDir(fmt.Sprintf("replay%d", k))
		l.fail(copyDir(dir, img))
		start := time.Now()
		re := open(img, 0)
		end := time.Now()
		l.c.tr.span("wal.open", "", k, start, end)
		replay = append(replay, max(end.Sub(start).Nanoseconds()-medianInt64(read), 0))
		if re != nil {
			if got := re.Recovery().Records; got != len(batches) {
				l.fail(fmt.Errorf("crash image replayed %d of %d records", got, len(batches)))
			}
			l.fail(re.Close())
		}
	}
	l.res.add("wal.replay_ms", "ms", nsToMs(medianInt64(replay)), len(replay), "wal.Open on the crash image minus storage.checkpoint_read_ms")

	// Group commit without linger: the append skips its fsync and Seal's
	// ticket resolves when the covering fsync is done.
	store = open(l.tempDir("seal"), -1)
	if l.err != nil {
		return
	}
	batches = resolve(store)
	var seal []int64
	for i := range batches {
		l.fail(store.LogAnnotations(batches[i], false))
		start := time.Now()
		if ticket := store.Seal(); ticket != nil {
			l.fail(<-ticket)
		}
		end := time.Now()
		seal = append(seal, end.Sub(start).Nanoseconds())
		l.c.tr.span("wal.seal", "", i, start, end)
	}
	l.median("wal.seal_us", "us", seal)
	l.timed("wal.checkpoint_ms", "ms", "", l.n(ladderFew), func(int) { l.fail(store.Checkpoint()) })
	l.fail(store.Close())
}

// selfTimes prints each ladder's budget: a rung's median minus the rung
// below it. They are derived, so they are printed and kept in the result
// file but are not BENCHMARK.json metrics.
func (l *ladderRun) selfTimes() {
	for _, name := range []string{"recommend", "correlate", "write"} {
		below := 0.0
		for _, rung := range ladders[name] {
			m, ok := l.res.get(rung)
			if !ok {
				continue
			}
			l.res.add("self."+rung, m.Unit, m.Value-below, m.Samples, name+" ladder: this rung minus the one below")
			below = m.Value
		}
	}
}
