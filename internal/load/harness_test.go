package load

import (
	"context"
	"testing"
	"time"
)

// TestRunClosedLoop drives an in-process in-memory server with the full
// mixed closed-loop harness and checks the report's basic sanity: work
// completed, no transport errors, and no read-your-writes violations.
func TestRunClosedLoop(t *testing.T) {
	l, err := StartLocal(LocalOptions{Corpus: "metrics", Tuples: 500, Seed: 1, Events: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, l)
	rep, err := Run(context.Background(), Target{BaseURL: l.URL}, Scenario{
		Name: "closed-smoke", Corpus: "metrics", DurationSeconds: 1,
		Concurrency: 4, Subscribers: 2, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("no completed requests")
	}
	if n := rep.Recommend.Errors + rep.Annotations.Errors + rep.Tuples.Errors; n != 0 {
		t.Fatalf("%d transport errors during smoke run", n)
	}
	if rep.SeqRegressions != 0 {
		t.Fatalf("%d read-your-writes violations", rep.SeqRegressions)
	}
	if rep.SSE.Events == 0 {
		t.Fatal("subscribers saw no churn events under a write-bearing mix")
	}
	if rep.SSE.CursorRegressions != 0 {
		t.Fatalf("%d SSE cursor regressions", rep.SSE.CursorRegressions)
	}
	if rep.Recommend.P99Millis < rep.Recommend.P50Millis {
		t.Fatalf("p99 %.3fms below p50 %.3fms", rep.Recommend.P99Millis, rep.Recommend.P50Millis)
	}
}

// TestRunOpenLoop checks the open loop's defining property: achieved
// throughput tracks the offered rate (not the server's capacity) when the
// server is unsaturated.
func TestRunOpenLoop(t *testing.T) {
	l, err := StartLocal(LocalOptions{Corpus: "paper", Tuples: 500, Seed: 2, Events: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, l)
	rep, err := Run(context.Background(), Target{BaseURL: l.URL}, Scenario{
		Name: "open-smoke", Mode: "open", Rate: 300, Corpus: "paper",
		DurationSeconds: 1.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OfferedRPS < 100 {
		t.Fatalf("offered %.1f req/s is far below the 300 req/s arrival rate", rep.OfferedRPS)
	}
	// The server handles >5k req/s closed-loop, so at 300 offered the
	// achieved rate should track offered closely.
	if rep.AchievedRPS < rep.OfferedRPS*0.8 {
		t.Fatalf("achieved %.1f req/s lags offered %.1f req/s on an unsaturated server",
			rep.AchievedRPS, rep.OfferedRPS)
	}
}

// TestRunValidates checks the harness rejects unrunnable scenarios and an
// empty target before generating load.
func TestRunValidates(t *testing.T) {
	if _, err := Run(context.Background(), Target{BaseURL: "http://127.0.0.1:0"}, Scenario{Mode: "sideways"}); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := Run(context.Background(), Target{BaseURL: "http://127.0.0.1:0"}, Scenario{Corpus: "nope"}); err == nil {
		t.Fatal("bad corpus accepted")
	}
}

func mustClose(t *testing.T, l *Local) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.Close(ctx); err != nil {
		t.Errorf("close local server: %v", err)
	}
}
