package load

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// replicatedLocal boots a durable primary with n followers on the metrics
// corpus (its planted correlations keep the rule set non-trivial at low
// thresholds). Every boot is durable — including n = 0 — so follower
// counts compare against the same primary construction.
func replicatedLocal(t testing.TB, n int) *Local {
	t.Helper()
	l, err := StartLocal(LocalOptions{
		Corpus:        "metrics",
		Tuples:        800,
		Seed:          1,
		Dir:           t.TempDir(),
		Followers:     n,
		MinSupport:    0.05,
		MinConfidence: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := l.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return l
}

// TestReplicatedLocalServesBarrierReads drives a mixed workload against a
// primary plus one follower: reads round-robin across both carrying the
// min_seq barrier, so zero seq regressions and zero read errors mean the
// follower honored read-your-writes under live writes.
func TestReplicatedLocalServesBarrierReads(t *testing.T) {
	l := replicatedLocal(t, 1)
	if len(l.ReadURLs) != 2 {
		t.Fatalf("ReadURLs = %v, want primary + 1 follower", l.ReadURLs)
	}
	rep, err := Run(context.Background(), Target{BaseURL: l.URL, ReadURLs: l.ReadURLs}, Scenario{
		Name:             "replica-mixed",
		Mode:             "closed",
		Corpus:           "metrics",
		DurationSeconds:  1,
		Concurrency:      4,
		ReadFraction:     0.7,
		AnnotateFraction: 0.2,
		TupleFraction:    0.1,
		MaxRetries:       2,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recommend.Requests == 0 {
		t.Error("no reads completed")
	}
	if rep.Recommend.Errors != 0 {
		t.Errorf("%d read errors (local barrier reads should never time out)", rep.Recommend.Errors)
	}
	if rep.SeqRegressions != 0 {
		t.Errorf("%d seq regressions across replicated reads", rep.SeqRegressions)
	}
	if rep.Annotations.Errors != 0 || rep.Tuples.Errors != 0 {
		t.Errorf("write errors: annotations %d, tuples %d", rep.Annotations.Errors, rep.Tuples.Errors)
	}
}

// BenchmarkReplicaReadScaling measures aggregate closed-loop 2xx
// /recommend throughput as read replicas are added behind one durable
// primary. Every instance enforces the same per-instance read admission
// cap (the deployment-shaped constraint: each replica owns its capacity
// and sheds beyond it), so the aggregate admitted throughput — the req/s
// metric — grows with the follower count even though all instances share
// this machine's CPU. Each iteration is a fixed one-second read-only run.
func BenchmarkReplicaReadScaling(b *testing.B) {
	const perInstanceRate = 2000
	for _, followers := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("followers=%d", followers), func(b *testing.B) {
			l, err := StartLocal(LocalOptions{
				Corpus:        "metrics",
				Tuples:        800,
				Seed:          1,
				Dir:           b.TempDir(),
				Followers:     followers,
				ReadRate:      perInstanceRate,
				MinSupport:    0.05,
				MinConfidence: 0.5,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := l.Close(ctx); err != nil {
					b.Errorf("close: %v", err)
				}
			})
			sc := Scenario{
				Name:            "replica-read-scaling",
				Mode:            "closed",
				Corpus:          "metrics",
				DurationSeconds: 1,
				Concurrency:     16,
				ReadFraction:    1,
				Seed:            1,
			}
			tgt := Target{BaseURL: l.URL, ReadURLs: l.ReadURLs}
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), tgt, sc)
				if err != nil {
					b.Fatal(err)
				}
				if rep.SeqRegressions != 0 {
					b.Fatalf("%d seq regressions", rep.SeqRegressions)
				}
				total += rep.AchievedRPS
			}
			b.ReportMetric(total/float64(b.N), "req/s")
		})
	}
}
