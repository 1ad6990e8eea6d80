package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"annotadb"
	"annotadb/internal/workload"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	sp      spec
	seed    int64
	seconds int
	// scale multiplies the op count and the probe counts. It is 1 in every
	// run the command line can start, so every result file holds full-size
	// runs; the smoke test sets 1/200.
	scale  float64
	traced bool
	out    string
	// tr records spans in a traced run; nil otherwise.
	tr *tracer
}

// timedOps is the workload's fixed op count for this invocation. A traced
// run replays a quarter of it with one client.
func (c runConfig) totalOps() int {
	n := c.sp.opsPerSecond * float64(c.seconds) * c.scale
	if c.traced {
		n /= 4
	}
	if n < 40 {
		n = 40
	}
	return int(n)
}

func (c runConfig) setups() int {
	if c.traced || c.scale < 1 {
		return 1
	}
	return c.sp.setups
}

func (c runConfig) clients() int {
	if c.traced {
		return 1
	}
	return min(runtime.NumCPU(), 2)
}

func (c runConfig) dataDir(tag string) string {
	return filepath.Join(c.out, fmt.Sprintf("data-%s-%d-%s", c.sp.name, os.Getpid(), tag))
}

func newResult(c runConfig) *workloadResult {
	return &workloadResult{
		Workload: c.sp.name, Seed: c.seed, Seconds: c.seconds, Traced: c.traced, Clients: c.clients(),
		Ops: map[string]int{}, Sizes: map[string]int{}, Checks: map[string]int{},
	}
}

// serverCounters are the server-side counts a run reports as deltas over its
// timed phase.
type serverCounters struct {
	requests, batches, shed uint64
	builds, hits            uint64
	records, syncs          uint64
	logBytes                int64
	eventsPublished         uint64
	remines                 int
}

func readCounters(srv *annotadb.Server) serverCounters {
	st := srv.Stats()
	cs := srv.CorrelateStats()
	ss := srv.StreamStats()
	c := serverCounters{
		requests: st.Requests, batches: st.Batches, shed: st.Shed, remines: st.Remines,
		builds: cs.IndexBuilds, hits: cs.CacheHits,
		eventsPublished: ss.EventsPublished,
	}
	if d := srv.Durability(); d != nil {
		c.records, c.syncs, c.logBytes = d.RecordsAppended, d.Syncs, d.LogBytes
	}
	return c
}

// runServer runs one of the three HTTP workloads: repeated set-up, the op
// list's warm-up and timed phases over closed-loop clients, the output
// checks, and (durable) the crash-image recovery.
func runServer(c runConfig) (*workloadResult, error) {
	sp := c.sp
	res := newResult(c)
	tr := c.tr
	// Set-up, repeated: setup_s is the median, the last one serves the run.
	var (
		setupSecs []float64
		st        *stack
		dir       string
	)
	cleanup := func() {
		if st != nil {
			st.close() //nolint:errcheck
			st = nil
		}
		if dir != "" {
			os.RemoveAll(dir) //nolint:errcheck
		}
	}
	defer func() { cleanup() }()
	var (
		err    error
		stream workload.Stream
		base   []workload.TokenTuple
	)
	for k := 0; k < c.setups(); k++ {
		cleanup()
		if sp.durable {
			dir = c.dataDir(fmt.Sprintf("s%d", k))
		}
		runtime.GC()
		t0 := time.Now()
		st, stream, base, err = bootStack(sp, c.seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	res.add("setup_s", "s", medianFloat(setupSecs), len(setupSecs), "")

	total := c.totalOps()
	warm := total / 20
	list, err := genOps(sp, total, base, stream, rand.New(rand.NewSource(c.seed^0x6f70)))
	if err != nil {
		return nil, err
	}
	res.Ops["total"], res.Ops["warmup"], res.Ops["timed"] = total, warm, total-warm
	for cl, n := range list.counts {
		res.Ops[classNames[cl]] = n
	}
	res.Sizes["seed_tuples"] = sp.tuples
	res.Sizes["shards"] = max(sp.shards, 1)
	res.Sizes["annotations_per_op"] = annotationsPerOp
	res.Sizes["tuples_per_op"] = tuplesPerOp
	res.Sizes["seed_rules"] = st.srv.Stats().RuleCount

	epoch := time.Now()
	var sub *subscriber
	if sp.subscriber {
		if sub, err = subscribe(st.url, epoch); err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	lat := make([]int64, total)
	for i := range lat {
		lat[i] = -1
	}
	clients := make([]*client, c.clients())
	for i := range clients {
		clients[i] = newClient(st.url, list, lat, st.srv, epoch, tr)
		defer clients[i].hc.CloseIdleConnections()
	}

	runPhase(clients, list.ops, 0, warm, false)
	before := readCounters(st.srv)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	first, last := runPhase(clients, list.ops, warm, total, true)
	runtime.ReadMemStats(&m1)
	after := readCounters(st.srv)
	if sub != nil {
		sub.drain(st.srv)
	}

	// Client-side latencies, merged across clients.
	var (
		perClass     [numClasses][]int64
		major, minor []int64
		writes       []writeRec
		updates      int
	)
	for i := warm; i < total; i++ {
		if lat[i] < 0 {
			continue
		}
		class := list.ops[i].class
		perClass[class] = append(perClass[class], lat[i])
		if sp.minorClass[class] {
			minor = append(minor, lat[i])
		} else {
			major = append(major, lat[i])
		}
	}
	for _, cl := range clients {
		writes = append(writes, cl.writes...)
		updates += cl.updatesAcked
		res.Attempted += cl.attempted
		res.Failed += cl.failed
		res.Checks["read_your_writes_violations"] += cl.rywViolations
		res.Checks["sampled_bodies_checked"] += cl.sampled
		res.Checks["sampled_bodies_mismatched"] += cl.sampleMismatch
		res.Checks["shed_retries"] += cl.shedRetries
		if cl.firstErr != nil && res.FirstError == "" {
			res.FirstError = cl.firstErr.Error()
		}
	}
	okTimed := len(major) + len(minor)
	res.reportPhase(first, last, okTimed)
	res.latency("major", 0.95, major, sp.major)
	res.latency("minor", 0.95, minor, sp.minor)
	// The issue's per-request-type view; n/a where the mix has no such op.
	clientLatency := func(name string, classes ...opClass) {
		var samples []int64
		share := 0
		for _, cl := range classes {
			samples = append(samples, perClass[cl]...)
			share += sp.mix[cl]
		}
		if share == 0 {
			res.na(name+"_p50_ms", "ms")
			res.na(name+"_p99_ms", "ms")
			return
		}
		res.latency(name, 0.99, samples, "")
	}
	clientLatency("client.recommend", opRecommend)
	clientLatency("client.correlate", opCorrelate)
	clientLatency("client.write_ack", opAnnotations, opTuples)

	// The subscriber's view.
	if sub != nil {
		lags := eventLags(writes, sub.events)
		if len(lags) > 0 {
			res.add("client.event_lag_p50_ms", "ms", nsToMs(medianInt64(lags)), len(lags), "")
		} else {
			res.add("client.event_lag_p50_ms", "ms", 0, 0, "no write of this run churned a rule")
		}
		res.add("stream.events", "count", float64(len(sub.events)), len(sub.events), "")
		res.add("stream.gaps", "count", float64(sub.gaps), sub.gaps, "")
		res.add("stream.events_per_write", "ratio", ratio(float64(len(sub.events)), float64(len(writes))), len(writes), "")
		res.Checks["sse_cursor_regressions"] = sub.regressions
		res.Checks["sse_decode_errors"] = sub.decodeErrs
		res.Attempted += len(sub.events)
		res.Failed += sub.regressions + sub.decodeErrs
		if published := after.eventsPublished; uint64(len(sub.events))+uint64(sub.gaps) < published-before.eventsPublished {
			// Every event of the timed phase must have arrived (the
			// subscriber also saw the warm-up's, hence <).
			res.fail("subscriber received %d events, server published %d", len(sub.events), published)
		}
	} else {
		res.na("client.event_lag_p50_ms", "ms")
		res.add("stream.events", "count", 0, 0, "")
		res.add("stream.gaps", "count", 0, 0, "")
		res.add("stream.events_per_write", "ratio", 0, 0, "")
	}

	// Every op was acknowledged once, so the served relation must be exactly
	// the one the op list's model predicts.
	stats := st.srv.Stats()
	res.Attempted++
	if stats.Tuples != list.wantTuples || stats.Attachments != list.wantAttachments {
		res.Checks["final_state_mismatches"]++
		res.fail("served relation holds %d tuples / %d attachments, the op list implies %d / %d",
			stats.Tuples, stats.Attachments, list.wantTuples, list.wantAttachments)
	}

	// Server-side counters over the timed phase.
	stage := stats.Latency
	res.add("serve.stage_queue_us", "us", nsToUs(stage.Queue.P50.Nanoseconds()), int(stage.Queue.Count), "")
	res.add("serve.stage_apply_us", "us", nsToUs(stage.Apply.P50.Nanoseconds()), int(stage.Apply.Count), "")
	res.add("serve.stage_fsync_us", "us", nsToUs(stage.Fsync.P50.Nanoseconds()), int(stage.Fsync.Count), "")
	res.add("serve.stage_publish_us", "us", nsToUs(stage.Publish.P50.Nanoseconds()), int(stage.Publish.Count), "")
	requests := after.requests - before.requests
	res.add("serve.coalesce_ratio", "ratio", ratio(float64(requests), float64(after.batches-before.batches)), int(requests), "")
	res.add("serve.shed", "count", float64(after.shed-before.shed), int(requests), "")
	builds, hits := after.builds-before.builds, after.hits-before.hits
	res.add("correlate.index_builds", "count", float64(builds), int(builds+hits), "")
	res.add("correlate.cache_hit_ratio", "ratio", ratio(float64(hits), float64(builds+hits)), int(builds+hits), "")
	syncs := after.syncs - before.syncs
	res.add("wal.syncs", "count", float64(syncs), int(syncs), "")
	res.add("wal.records", "count", float64(after.records-before.records), int(after.records-before.records), "")
	res.add("wal.updates_per_sync", "ratio", ratio(float64(updates), float64(syncs)), int(syncs), "")
	if sp.durable {
		res.add("client.wal_bytes_per_update", "B", ratio(float64(after.logBytes-before.logBytes), float64(updates)), updates, "")
	} else {
		res.na("client.wal_bytes_per_update", "B")
	}
	var promoted, discovered int
	for _, cl := range clients {
		promoted += cl.promoted
		discovered += cl.discovered
	}
	res.add("incremental.remines", "count", float64(after.remines-before.remines), len(writes), "")
	res.add("incremental.promotions", "count", float64(promoted), len(writes), "from write acks, warm-up included")
	res.add("incremental.discoveries", "count", float64(discovered), len(writes), "from write acks, warm-up included")
	res.add("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC), okTimed, "")
	res.add("runtime.gc_pause_total_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC), "")
	res.add("runtime.alloc_mb", "MiB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), okTimed, "")
	res.na("client.maintain_updates_per_s", "1/s")
	res.na("client.remine_speedup", "x")

	// Read before the recovery check, which opens second servers beside
	// the live one.
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.add("peak_rss_mb", "MiB", rss, 1, "")
	if sp.durable {
		if err := recoverCheck(c, st, dir, res); err != nil {
			return nil, err
		}
	} else {
		res.na("client.recover_s", "s")
	}
	res.add("client.failed_frac", "ratio", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted, "")
	res.Correct = res.Failed == 0
	return res, nil
}

// recoverCheck copies the quiescent data directory (a crash image: the seed
// checkpoint plus the full WAL tail), times a reopen from the copy until
// /healthz answers, and checks that every acknowledged write survived: the
// reopened server's tuple count, attachment count and rule set equal the
// live server's. The reopen is repeated from fresh copies; recover_s is the
// median.
func recoverCheck(c runConfig, st *stack, dir string, res *workloadResult) error {
	live := st.srv.Stats()
	liveRules := st.srv.Rules()
	const reopens = 3
	var secs []float64
	for k := 0; k < reopens; k++ {
		img := c.dataDir(fmt.Sprintf("crash%d", k))
		if err := copyDir(dir, img); err != nil {
			return fmt.Errorf("crash image: %w", err)
		}
		err := func() error {
			defer os.RemoveAll(img) //nolint:errcheck
			runtime.GC()
			t0 := time.Now()
			srv, err := openServer(c.sp, annotadb.NewDataset(), img)
			if err != nil {
				return fmt.Errorf("reopen crash image: %w", err)
			}
			re, err := listen(srv)
			if err != nil {
				closeServer(srv) //nolint:errcheck
				return err
			}
			secs = append(secs, time.Since(t0).Seconds())
			defer re.close() //nolint:errcheck
			got := re.srv.Stats()
			res.Attempted++
			if got.Tuples != live.Tuples || got.Attachments != live.Attachments || !reflect.DeepEqual(re.srv.Rules(), liveRules) {
				res.Checks["recovery_state_mismatches"]++
				res.fail("reopened state differs: tuples %d vs %d, attachments %d vs %d, rules equal %v",
					got.Tuples, live.Tuples, got.Attachments, live.Attachments, reflect.DeepEqual(re.srv.Rules(), liveRules))
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	res.Checks["recovery_reopens"] = reopens
	res.add("client.recover_s", "s", medianFloat(secs), len(secs), "")
	return nil
}
