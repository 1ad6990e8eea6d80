package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// minCompareRuns is how many runs each side of a comparison needs before
// its quartiles mean anything.
const minCompareRuns = 5

// loadSet reads one result document and groups its values by workload and
// metric, one value per run.
func loadSet(path string) (map[string]map[string][]float64, int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	set := map[string]map[string][]float64{}
	for _, r := range doc.Runs {
		for _, w := range r.Workloads {
			if !w.Correct {
				return nil, 0, fmt.Errorf("%s: workload %s seed %d failed its output checks (%d of %d)", path, w.Workload, w.Seed, w.Failed, w.Attempted)
			}
			if set[w.Workload] == nil {
				set[w.Workload] = map[string][]float64{}
			}
			for _, m := range w.Metrics {
				if !m.NA {
					set[w.Workload][m.Name] = append(set[w.Workload][m.Name], m.Value)
				}
			}
		}
	}
	return set, len(doc.Runs), nil
}

// compareMain implements `benchmark compare A.json B.json`: A is the base
// (the parent commit, or the first of two sets of the same commit), B the
// candidate. Every end-to-end metric × workload row shows both medians and
// quartiles and the bound; a row whose run-to-run spread exceeds its bound
// is unresolved, and a row where B's median is worse than A's by more than
// the bound is out of bound. The issue's metrics that only some workloads
// have (comparedWhereMeasured) are gated the same way on the workloads that
// report them; the per-request-type percentiles follow without a verdict.
// It returns the exit code: 1 on any out-of-bound row.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var (
		sets [2]map[string]map[string][]float64
		runs [2]int
	)
	for i, path := range args {
		var err error
		sets[i], runs[i], err = loadSet(path)
		if err == nil && runs[i] < minCompareRuns {
			err = fmt.Errorf("%s holds %d runs; a comparison needs at least %d per side", path, runs[i], minCompareRuns)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
	}
	a, b := sets[0], sets[1]
	fmt.Printf("base A = %s (%d runs), B = %s (%d runs); worse%% is B's median against A's, positive = worse\n", args[0], runs[0], args[1], runs[1])
	fmt.Printf("%-20s %-30s %-5s %36s %36s %8s %6s  %s\n", "workload", "metric", "unit", "A q1 / median / q3", "B q1 / median / q3", "worse%", "bound", "verdict")
	code := 0
	for _, sp := range specs {
		// A set whose runs lost CPU time to other guests measured the
		// neighbours too: say so beside its rows.
		disturbed := ""
		for i, set := range sets {
			if _, steal, _ := quartiles(set[sp.name]["env.steal_frac"]); steal > maxStealFrac {
				disturbed += fmt.Sprintf("; %c disturbed (%.1f%% of CPU stolen)", 'A'+i, steal*100)
			}
		}
		for _, d := range endToEnd {
			va, vb := a[sp.name][d.name], b[sp.name][d.name]
			if len(va) < minCompareRuns || len(vb) < minCompareRuns {
				fmt.Printf("%-20s %-30s missing on one side\n", sp.name, d.name)
				code = 1
				continue
			}
			code = max(code, compareRow(sp.name, d, va, vb, disturbed))
		}
		for _, d := range comparedWhereMeasured {
			va, vb := a[sp.name][d.name], b[sp.name][d.name]
			if len(va) == 0 && len(vb) == 0 {
				continue // n/a: the workload has no such operation
			}
			if len(va) < minCompareRuns || len(vb) < minCompareRuns {
				fmt.Printf("%-20s %-30s missing on one side\n", sp.name, d.name)
				code = 1
				continue
			}
			code = max(code, compareRow(sp.name, d, va, vb, disturbed))
		}
	}
	gated := map[string]bool{}
	for _, d := range comparedWhereMeasured {
		gated[d.name] = true
	}
	for _, sp := range specs {
		for _, d := range perLayer {
			va, vb := a[sp.name][d.name], b[sp.name][d.name]
			if !strings.HasPrefix(d.name, "client.") || gated[d.name] || len(va) < minCompareRuns || len(vb) < minCompareRuns {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Printf("%-20s %-30s %-5s %36s %36s  reported\n", sp.name, d.name, d.unit, triple(a1, a2, a3), triple(b1, b2, b3))
		}
	}
	return code
}

// compareRow prints one gated row and returns 1 when it is out of bound.
func compareRow(workload string, d metricDef, va, vb []float64, disturbed string) int {
	a1, a2, a3 := quartiles(va)
	b1, b2, b3 := quartiles(vb)
	worse := ratio(b2-a2, a2)
	if d.higher {
		worse = -worse
	}
	spread := max(ratio(a3-a1, a2), ratio(b3-b1, b2))
	verdict, code := "ok", 0
	switch {
	case worse > d.bound:
		verdict, code = "OUT OF BOUND", 1
	case spread > d.bound:
		verdict = fmt.Sprintf("unresolved (spread %.1f%%)", spread*100)
	}
	fmt.Printf("%-20s %-30s %-5s %36s %36s %+8.2f %5.0f%%  %s%s\n", workload, d.name, d.unit,
		triple(a1, a2, a3), triple(b1, b2, b3), worse*100, d.bound*100, verdict, disturbed)
	return code
}

func triple(q1, q2, q3 float64) string {
	return fmt.Sprintf("%.5g / %.5g / %.5g", q1, q2, q3)
}
