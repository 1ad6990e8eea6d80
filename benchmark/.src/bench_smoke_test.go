package main

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"annotadb/internal/workload"
)

// rootManifest is the repository's BENCHMARK.json as seen from this package.
var rootManifest = filepath.Join("..", "..", manifestPath)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the program's tables")

// TestManifest holds BENCHMARK.json to the tables the program measures by;
// with -update it rewrites the file.
func TestManifest(t *testing.T) {
	if *update {
		b, err := manifest()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(rootManifest, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkManifest(rootManifest); err != nil {
		t.Error(err)
	}
}

// TestOpListKeepsPairsApart generates the write workloads' full-size op
// lists and checks that no (tuple, annotation) pair is named by two ops
// closer than removeLag: ops that close could be in flight together and
// applied in either order, and the final-state check would then fail a
// correct server.
func TestOpListKeepsPairsApart(t *testing.T) {
	for _, sp := range specs {
		if sp.mix[opAnnotations] == 0 {
			continue
		}
		stream, err := workload.NewStream(sp.corpus, 1)
		if err != nil {
			t.Fatal(err)
		}
		base := stream.Base(sp.tuples)
		c := runConfig{sp: sp, seed: 1, seconds: defaultSeconds, scale: 1}
		list, err := genOps(sp, c.totalOps(), base, stream, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		type pair struct {
			tuple int
			annot string
		}
		last := map[pair]int{}
		removals, reattached := 0, 0
		for i, o := range list.ops {
			if o.class != opAnnotations {
				continue
			}
			var body annotationsBody
			if err := json.Unmarshal(list.bodies[o.arg], &body); err != nil {
				t.Fatal(err)
			}
			if body.Remove {
				removals++
			}
			for _, u := range body.Updates {
				p := pair{u.Tuple, u.Annotation}
				if prev, seen := last[p]; seen {
					if i-prev < removeLag {
						t.Fatalf("%s: ops %d and %d, %d apart, both name %v", sp.name, prev, i, i-prev, p)
					}
					if !body.Remove {
						reattached++
					}
				}
				last[p] = i
			}
		}
		if removals == 0 {
			t.Errorf("%s: the list never detaches", sp.name)
		}
		t.Logf("%s: %d annotation ops, %d removals, %d pairs re-attached after their cool-down", sp.name, list.counts[opAnnotations], removals, reattached)
	}
}

// TestSmoke runs all four workloads, untraced and traced, at 1/200 of the
// op count and checks the contract between the program and BENCHMARK.json:
// every metric the file names is emitted exactly once per workload under a
// well-formed name, the end-to-end ones are never zero, and no output check
// fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads; skipped under -short")
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, traced := range []bool{false, true} {
		declared := doc.EndToEnd
		if traced {
			declared = doc.PerLayer
		}
		for _, sp := range specs {
			res, err := runWorkload(runConfig{sp: sp, seed: 2, seconds: defaultSeconds, scale: 1.0 / 200, traced: traced, out: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: failed %d of %d: %s", sp.name, traced, res.Failed, res.Attempted, res.FirstError)
			}
			if m, _ := res.get("client.failed_frac"); m.Value != 0 {
				t.Errorf("%s traced=%v: failed_frac = %v", sp.name, traced, m.Value)
			}
			emitted := map[string]int{}
			for _, m := range res.Metrics {
				emitted[m.Name]++
				if !metricNameRE.MatchString(m.Name) {
					t.Errorf("%s: metric name %q is malformed", sp.name, m.Name)
				}
			}
			for _, d := range declared {
				if emitted[d.Name] != 1 {
					t.Errorf("%s traced=%v: %s emitted %d times", sp.name, traced, d.Name, emitted[d.Name])
				}
				if m, _ := res.get(d.Name); !traced && (m.NA || m.Value <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v (n/a %v); it must be measured and non-zero", sp.name, d.Name, m.Value, m.NA)
				}
			}
			if _, err := contractLine(res); err != nil {
				t.Errorf("%s traced=%v: %v", sp.name, traced, err)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, "trace-"+sp.name+".json")); err != nil {
					t.Errorf("%s: span file: %v", sp.name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "data-*")); len(left) > 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4), which
// the benchmark's acceptance rule is stated in.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
}

// TestCompare checks the verdicts: two sets of the same numbers agree, a
// set worse than its bound is out of bound, and a metric only one workload
// has is gated on that workload and skipped on the others.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name, worseMetric string) string {
		doc := document{}
		for r := 0; r < minCompareRuns; r++ {
			pass := run{Seed: int64(r)}
			for _, sp := range specs {
				res := &workloadResult{Workload: sp.name, Correct: true}
				value := func(metric string) float64 {
					if metric == worseMetric {
						return 150 + float64(r)
					}
					return 100 + float64(r)
				}
				for _, d := range endToEnd {
					res.add(d.name, d.unit, value(d.name), 1, "")
				}
				if sp.durable {
					res.add("client.recover_s", "s", value("client.recover_s"), 1, "")
				} else {
					res.na("client.recover_s", "s")
				}
				pass.Workloads = append(pass.Workloads, res)
			}
			doc.Runs = append(doc.Runs, pass)
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same := write("a.json", ""), write("same.json", "")
	if code := compareMain([]string{a, same}); code != 0 {
		t.Errorf("identical sets: exit %d, want 0", code)
	}
	for _, metric := range []string{"major_p50_ms", "client.recover_s"} {
		if code := compareMain([]string{a, write("worse.json", metric)}); code != 1 {
			t.Errorf("%s 50%% worse: exit %d, want 1", metric, code)
		}
	}
	if code := compareMain([]string{a}); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
}
