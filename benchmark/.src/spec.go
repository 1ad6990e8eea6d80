package main

import "fmt"

// opClass is one request type of the serving API.
type opClass uint8

const (
	opRecommend opClass = iota
	opCorrelate
	opAnnotations
	opTuples
	numClasses
)

var classNames = [numClasses]string{"recommend", "correlate", "annotations", "tuples"}

// Batch shapes of the write ops (the load harness's defaults).
const (
	annotationsPerOp = 16
	tuplesPerOp      = 4
)

// spec describes one workload. The three server workloads share a corpus so
// that their numbers differ only by traffic mix and code path; paper_maintain
// drives the root Engine directly on the paper's corpus shape.
type spec struct {
	name string
	why  string
	// corpus, tuples and the thresholds describe the seed relation. The
	// paper corpus keeps workload.Default8K's shape (vocabulary, planted
	// rules); tuples only scales its size.
	corpus          string
	tuples          int
	minSup, minConf float64
	shards          int
	durable         bool
	subscriber      bool
	server          bool
	mix             [numClasses]int // percent per class; sums to 100
	// opsPerSecond sizes the fixed work: the timed op count is
	// opsPerSecond × --seconds, calibrated so the timed part lasts about
	// --seconds on the seed commit on the 2-core sandbox. It is a constant of
	// the benchmark, never of the run, so both sides of an A/B replay the
	// same op list.
	opsPerSecond float64
	// setups is how many times set-up is repeated; setup_s is their median.
	setups int
	// major and minor name the workload's two gated latency classes for the
	// README and the run's header; which ops fall in the minor one is
	// minorClass (server workloads) or the re-mine (paper_maintain).
	major, minor string
	minorClass   [numClasses]bool
}

var specs = []spec{
	{
		name:   "read_heavy",
		why:    "snapshot never changes: socket, httpapi, facade, predict/correlate and encode do all the work; a write-path change must not show",
		corpus: "metrics", tuples: 8000, minSup: 0.05, minConf: 0.5,
		server: true, mix: [numClasses]int{75, 25, 0, 0},
		opsPerSecond: 40000, setups: 21,
		major: "recommend", minor: "correlate", minorClass: [numClasses]bool{opCorrelate: true},
	},
	{
		name:   "write_heavy_durable",
		why:    "fsync'd writes through queue, incremental Cases 1-3, WAL, COW relation, stream diff and per-publish index rebuild, plus crash-image recovery",
		corpus: "metrics", tuples: 8000, minSup: 0.05, minConf: 0.5,
		server: true, durable: true, subscriber: true,
		mix:          [numClasses]int{15, 10, 60, 15},
		opsPerSecond: 930, setups: 21,
		major: "write ack", minor: "recommend+correlate", minorClass: [numClasses]bool{opRecommend: true, opCorrelate: true},
	},
	{
		name:   "mixed_sharded",
		why:    "the same layers through shard.Router, merged top-K, per-shard writers and the merged event stream, so unsharded-only gains are held to account",
		corpus: "metrics", tuples: 8000, minSup: 0.05, minConf: 0.5,
		server: true, shards: 2, subscriber: true,
		mix:          [numClasses]int{55, 20, 20, 5},
		opsPerSecond: 2400, setups: 21,
		major: "recommend+correlate", minor: "write ack", minorClass: [numClasses]bool{opAnnotations: true, opTuples: true},
	},
	{
		name:   "paper_maintain",
		why:    "the paper's Fig. 16: incremental Cases 1-3 and removals against a periodic full re-mine on the root Engine, no HTTP",
		corpus: "paper", tuples: 32000, minSup: 0.4, minConf: 0.8,
		opsPerSecond: 850, setups: 7,
		major: "incremental batch", minor: "full re-mine",
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef is one metric of BENCHMARK.json: higher says which direction is
// better, bound (end-to-end metrics only) the share of the parent's median by
// which it may worsen.
type metricDef struct {
	name, unit string
	higher     bool
	bound      float64
}

func (d metricDef) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// endToEnd lists the metrics BENCHMARK.json gates. Its contract wants each
// of them from every workload and never 0, so latency is gated per class
// under two fixed names: every workload has a major class (three quarters or
// more of its ops) and a minor one (spec.major, spec.minor), and a
// regression confined to either moves its own pair of metrics. The issue's
// per-request-type names are reported as client.* in perLayer.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "major_p50_ms", unit: "ms", bound: 0.25},
	{name: "major_p95_ms", unit: "ms", bound: 0.25},
	{name: "minor_p50_ms", unit: "ms", bound: 0.25},
	{name: "minor_p95_ms", unit: "ms", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", bound: 0.20},
}

// comparedWhereMeasured are the issue's end-to-end metrics that only some
// workloads have. BENCHMARK.json cannot gate them (see endToEnd), so there
// they are per-layer client.* metrics; `compare` gates them, with these
// bounds, on the workloads that report them.
var comparedWhereMeasured = []metricDef{
	{name: "client.event_lag_p50_ms", unit: "ms", bound: 0.25},
	{name: "client.recover_s", unit: "s", bound: 0.25},
	{name: "client.wal_bytes_per_update", unit: "B", bound: 0.05},
	{name: "client.maintain_updates_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "client.remine_speedup", unit: "x", higher: true, bound: 0.25},
}
