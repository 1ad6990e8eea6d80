// Command benchmark measures annotadb end to end and layer by layer.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one workload (the BENCHMARK.json contract)
//	benchmark -seed N [-runs R] [-trace]                      all four workloads, each in a fresh child process
//	benchmark compare A.json B.json                           compare two sets of runs
//
// See README.md for what is measured and why.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long the timed part of
// a workload lasts on the seed commit.
const defaultSeconds = 15

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (default: all four, each in a child process)")
		seed         = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds      = flag.Int("seconds", defaultSeconds, "sizes the fixed op count: about this many seconds of timed work on the seed commit")
		trace        = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the untraced end-to-end one")
		runs         = flag.Int("runs", 1, "all-workloads mode: repeat the pass this many times with seeds seed, seed+1, ...")
		out          = flag.String("out", filepath.Join("benchmark", "out"), "directory for data dirs, span files and result files")
		result       = flag.String("result", "", "also write the full result document to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *runs < 1 {
		fatal(errors.New("need --seconds >= 1, --trace 0 or 1, --runs >= 1"))
	}
	if err := checkManifest(manifestPath); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *workloadName == "" {
		os.Exit(runAll(*seed, *seconds, *trace == 1, *runs, *out, *result))
	}
	sp, err := specByName(*workloadName)
	if err != nil {
		fatal(err)
	}
	res, err := runWorkload(runConfig{sp: sp, seed: *seed, seconds: *seconds, scale: 1, traced: *trace == 1, out: *out})
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if *result != "" {
		if err := writeJSON(*result, res); err != nil {
			fatal(err)
		}
	}
	line, err := contractLine(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload runs one workload in this process; a traced run then climbs
// the per-layer ladder and writes the span file.
func runWorkload(c runConfig) (*workloadResult, error) {
	if c.traced {
		c.tr = newTracer()
	}
	run := runMaintain
	if c.sp.server {
		run = runServer
	}
	res, err := run(c)
	if err != nil {
		return nil, err
	}
	if c.traced {
		if err := ladder(c, res); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		if err := c.tr.write(filepath.Join(c.out, "trace-"+c.sp.name+".json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// contractLine renders the last line of standard output the BENCHMARK.json
// contract asks for: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func contractLine(res *workloadResult) (string, error) {
	names := endToEnd
	if res.Traced {
		names = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range names {
		m, ok := res.get(d.name)
		if !ok {
			return "", fmt.Errorf("workload %s did not report %s", res.Workload, d.name)
		}
		metrics[d.name] = value{Value: m.Value, Unit: d.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	return string(b), err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
