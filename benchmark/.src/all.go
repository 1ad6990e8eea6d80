package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// document is one invocation's result file: the environment the numbers
// were taken in, then every run's workloads with every metric.
type document struct {
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Fsync      string `json:"fsync"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Runs       []run  `json:"runs"`
}

// run is one pass over the four workloads at one seed.
type run struct {
	Seed      int64             `json:"seed"`
	Workloads []*workloadResult `json:"workloads"`
}

func newDocument(seed int64, seconds int, traced bool) *document {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return &document{
		Seed: seed, Commit: gitCommit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GOGC: gogc,
		Fsync: fsyncPolicy, Seconds: seconds, Traced: traced,
	}
}

// gitCommit resolves HEAD from the working directory's .git by reading its
// files, so a checkout that is not a repository simply reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, ok := strings.CutSuffix(line, " "+ref); ok {
				return hash
			}
		}
	}
	return "unknown"
}

// runAll runs the four workloads `runs` times, each workload in a fresh child
// process (so peak_rss_mb and the heap are the workload's own), and writes
// one result document. It returns the process exit code.
func runAll(seed int64, seconds int, traced bool, runs int, out, result string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	doc := newDocument(seed, seconds, traced)
	code := 0
	for r := 0; r < runs; r++ {
		pass := run{Seed: seed + int64(r)}
		for _, sp := range specs {
			tmp := filepath.Join(out, fmt.Sprintf("child-%d-%s.json", os.Getpid(), sp.name))
			trace := "0"
			if traced {
				trace = "1"
			}
			cmd := exec.Command(self,
				"--workload", sp.name, "--seed", strconv.FormatInt(pass.Seed, 10), "--seconds", strconv.Itoa(seconds),
				"--trace", trace, "--out", out, "--result", tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: workload %s seed %d: %v\n", sp.name, pass.Seed, err)
				code = 1
			}
			b, err := os.ReadFile(tmp)
			os.Remove(tmp) //nolint:errcheck
			if err != nil {
				continue // the child failed before it had a result
			}
			var res workloadResult
			if err := json.Unmarshal(b, &res); err != nil {
				fatal(fmt.Errorf("child result %s: %w", tmp, err))
			}
			pass.Workloads = append(pass.Workloads, &res)
		}
		doc.Runs = append(doc.Runs, pass)
	}
	if result == "" {
		name := fmt.Sprintf("result-seed%d", seed)
		if traced {
			name += "-trace"
		}
		result = filepath.Join(out, name+".json")
	}
	if err := writeJSON(result, doc); err != nil {
		fatal(err)
	}
	fmt.Println("result file:", result)
	return code
}
