package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number. NA marks a metric the workload has no
// operation for (it is printed as n/a and carries no value).
type metric struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Samples  int     `json:"samples"`
	NA       bool    `json:"na,omitempty"`
	Note     string  `json:"note,omitempty"`
}

// workloadResult is everything one workload run produced.
type workloadResult struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Traced       bool           `json:"traced"`
	Clients      int            `json:"clients"`
	TimedSeconds float64        `json:"timed_seconds"`
	Ops          map[string]int `json:"ops"`
	Sizes        map[string]int `json:"sizes"`
	Checks       map[string]int `json:"checks"`
	Attempted    int            `json:"attempted"`
	Failed       int            `json:"failed"`
	Correct      bool           `json:"correct"`
	FirstError   string         `json:"first_error,omitempty"`
	Metrics      []metric       `json:"metrics"`
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// add records a measured metric; a name is reported once per run.
func (r *workloadResult) add(name, unit string, value float64, samples int, note string) {
	if !metricNameRE.MatchString(name) {
		panic("bad metric name " + name)
	}
	for _, m := range r.Metrics {
		if m.Name == name {
			panic("metric " + name + " reported twice")
		}
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Workload: r.Workload, Unit: unit, Value: value, Samples: samples, Note: note})
}

// fail counts one failed operation or output check, keeping the first
// failure's description.
func (r *workloadResult) fail(format string, args ...any) {
	r.Failed++
	if r.FirstError == "" {
		r.FirstError = fmt.Sprintf(format, args...)
	}
}

// na records that the workload has no operation of this kind.
func (r *workloadResult) na(name, unit string) {
	r.add(name, unit, 0, 0, "")
	r.Metrics[len(r.Metrics)-1].NA = true
}

func (r *workloadResult) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// latency adds <name>_p50_ms and <name>_p95_ms or _p99_ms (want is 0.95 or
// 0.99) for one latency sample set (nanoseconds): the whole sample's median
// and tail percentile, nothing set aside. When fewer than ten samples lie
// beyond the tail percentile its slot carries the highest percentile the
// sample does support and the note says which.
func (r *workloadResult) latency(name string, want float64, samples []int64, note string) {
	tail := fmt.Sprintf("p%g", want*100)
	p50, pTail := name+"_p50_ms", name+"_"+tail+"_ms"
	sorted := sortInt64(append([]int64(nil), samples...))
	r.add(p50, "ms", nsToMs(rank(sorted, 0.5)), len(sorted), note)
	q, label := tailQuantile(len(sorted), want)
	if label != tail {
		note = strings.TrimPrefix(note+"; ", "; ") + label + ": too few samples for " + tail
	}
	r.add(pTail, "ms", nsToMs(rank(sorted, q)), len(sorted), note)
}

// print writes every metric by name with unit and sample count.
func (r *workloadResult) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d %s: %d clients, %.2fs timed, ops %v\n", r.Workload, r.Seed, mode, r.Clients, r.TimedSeconds, r.Ops)
	for _, m := range r.Metrics {
		val := strconv.FormatFloat(m.Value, 'g', 6, 64)
		if m.NA {
			val = "n/a"
		}
		line := fmt.Sprintf("%-34s %14s %-6s n=%d", m.Name, val, m.Unit, m.Samples)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "checks %v attempted=%d failed=%d\n", r.Checks, r.Attempted, r.Failed)
	if r.FirstError != "" {
		fmt.Fprintln(w, "first error:", r.FirstError)
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
