package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sortInt64 sorts latency samples in place and returns them.
func sortInt64(xs []int64) []int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}

// rank returns the nearest-rank q-quantile of sorted samples (0 when empty).
func rank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile picks the tail percentile to report from n samples: want
// when at least ten samples lie beyond it, else p90 under the same rule,
// else the maximum. The label names what was picked.
func tailQuantile(n int, want float64) (q float64, label string) {
	for _, c := range []float64{want, 0.90} {
		if float64(n)*(1-c) >= 10 {
			return c, fmt.Sprintf("p%g", c*100)
		}
	}
	return 1, "max"
}

// medianInt64 is the median of unsorted samples (sorts a copy).
func medianInt64(xs []int64) int64 {
	c := append([]int64(nil), xs...)
	return rank(sortInt64(c), 0.5)
}

// medianFloat is the median of unsorted values, interpolating between the
// two middle values of an even count (0 when empty).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default exclusive method), which is what the acceptance rule for this
// benchmark is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c)
	if m < 2 {
		if m == 1 {
			return c[0], c[0], c[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (c[j-1]*float64(4-delta) + c[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }
func nsToUs(ns int64) float64 { return float64(ns) / 1e3 }

// mark is the wall clock, process CPU time and stolen CPU time at one end of
// a timed phase.
type mark struct {
	wall time.Time
	cpu  time.Duration
	// steal is the kernel's count of clock ticks, summed over CPUs, that
	// the hypervisor spent running other guests.
	steal int64
}

func markNow() mark { return mark{wall: time.Now(), cpu: cpuTime(), steal: stealTicks()} }

// userHz is the unit of /proc/stat's counters: ticks per second.
const userHz = 100

// stealTicks reads the steal counter of /proc/stat's aggregate cpu line (0
// where the kernel does not report one).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// maxStealFrac is the share of a run's CPU time the hypervisor may have
// given to other guests before `compare` calls the run disturbed.
const maxStealFrac = 0.01

// reportPhase adds the timed phase's throughput, CPU cost per op and stolen
// CPU share: ok successful ops between the two marks.
func (r *workloadResult) reportPhase(first, last mark, ok int) {
	wall := last.wall.Sub(first.wall).Seconds()
	r.TimedSeconds = wall
	r.add("ops_per_s", "1/s", ratio(float64(ok), wall), ok, "")
	r.add("cpu_ms_per_op", "ms", ratio(float64((last.cpu-first.cpu).Nanoseconds())/1e6, float64(ok)), ok, "")
	r.add("env.steal_frac", "ratio", ratio(float64(last.steal-first.steal)/userHz, wall*float64(runtime.NumCPU())), 1,
		"share of the timed phase's CPU time the hypervisor gave to other guests")
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
