// Correlation-discovery integration tests at the facade level: sharded
// merge equality, bitmap-vs-recompute equivalence under live writes,
// and churn-anomaly events surviving an SSE-style cursor resume across a
// clean durable restart.
package annotadb

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"annotadb/internal/correlate"
	"annotadb/internal/serve"
)

// correlateKeys renders an answer as comparable strings (the full scored
// identity of every ranked candidate).
func correlateKeys(a CorrelateAnswer) []string {
	out := make([]string, 0, len(a.Results)+1)
	out = append(out, fmt.Sprintf("anchor=%s count=%d n=%d", a.Anchor, a.AnchorCount, a.N))
	for _, r := range a.Results {
		out = append(out, fmt.Sprintf("%s fam=%s co=%d freq=%d conf=%.12g lift=%.12g chi2=%.12g p=%.12g",
			r.Token, r.Family, r.Count, r.Frequency, r.Confidence, r.Lift, r.ChiSquare, r.PValue))
	}
	return out
}

// TestCorrelateShardedMatchesUnsharded: the merged per-shard answer is
// byte-identical to the unsharded one for every anchor — annotation and
// data value alike — before and after a mixed write sequence.
func TestCorrelateShardedMatchesUnsharded(t *testing.T) {
	plain, err := NewEngine(shardedFixture(t), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewServer(plain, ServeOptions{BatchWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, ref)

	srv, err := NewShardedServer(shardedFixture(t), testOpts(), ServeOptions{BatchWindow: -1, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, srv)

	ctx := context.Background()
	compare := func(stage string) {
		t.Helper()
		for _, anchor := range []string{"Annot_q:1", "Annot_q:5", "Annot_src:a", "28", "85", "62", "12"} {
			for _, q := range []struct {
				k       int
				minLift float64
			}{{0, 0}, {3, 1.2}, {100, 0.5}} {
				want, _, wantErr := ref.Correlate(anchor, q.k, q.minLift)
				got, rs, gotErr := srv.Correlate(anchor, q.k, q.minLift)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("%s anchor %q: sharded err %v, unsharded err %v", stage, anchor, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if len(rs.Shards) != 3 {
					t.Fatalf("%s anchor %q: sharded ReadSeq vector %v, want width 3", stage, anchor, rs.Shards)
				}
				if !reflect.DeepEqual(correlateKeys(got), correlateKeys(want)) {
					t.Fatalf("%s anchor %q k=%d minLift=%v diverged:\nsharded   %v\nunsharded %v",
						stage, anchor, q.k, q.minLift, correlateKeys(got), correlateKeys(want))
				}
			}
		}
		for _, s := range []*Server{ref, srv} {
			if _, _, err := s.Correlate("never-seen", 0, 0); !errors.Is(err, ErrUnknownAnchor) {
				t.Fatalf("%s unknown anchor: got %v, want ErrUnknownAnchor", stage, err)
			}
		}
	}
	compare("seed")

	writes := func(s *Server) {
		t.Helper()
		if _, err := s.AddAnnotations(ctx, []AnnotationUpdate{
			{Tuple: 5, Annotation: "Annot_q:1"},
			{Tuple: 9, Annotation: "Annot_src:a"},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddTuples(ctx, []TupleSpec{
			{Values: []string{"28", "85"}, Annotations: []string{"Annot_q:1", "Annot_src:a"}},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RemoveAnnotations(ctx, []AnnotationUpdate{{Tuple: 0, Annotation: "Annot_q:5"}}); err != nil {
			t.Fatal(err)
		}
	}
	writes(ref)
	writes(srv)
	compare("after writes")
}

// TestCorrelateExactAcrossWrites: over rounds of annotation batch, tuple
// batch (new data values among them), removal and query, every answer is
// exact: the unsharded server's against brute force over its own snapshot,
// the sharded server's against the unsharded server's.
func TestCorrelateExactAcrossWrites(t *testing.T) {
	eng, err := NewEngine(shardedFixture(t), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewServer(eng, ServeOptions{BatchWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, one)
	three, err := NewShardedServer(shardedFixture(t), testOpts(), ServeOptions{BatchWindow: -1, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, three)

	anchors := []string{"Annot_q:1", "Annot_q:5", "Annot_src:a", "Annot_round:x", "28", "85", "62", "round=1"}
	query := func(stage string) {
		t.Helper()
		for _, anchor := range anchors {
			want, _, wantErr := one.Correlate(anchor, 50, 0.5)
			brute, bruteErr := correlate.BruteForce(one.router.Snapshots()[0].Snap.View,
				correlate.Query{Anchor: anchor, K: 50, MinLift: 0.5})
			got, _, gotErr := three.Correlate(anchor, 50, 0.5)
			if !errors.Is(wantErr, bruteErr) || !errors.Is(gotErr, wantErr) {
				t.Fatalf("%s anchor %q: errors diverged: brute %v, N=1 %v, N=3 %v", stage, anchor, bruteErr, wantErr, gotErr)
			}
			if !reflect.DeepEqual(want, brute) {
				t.Fatalf("%s anchor %q: N=1 diverged from brute force:\nserver %+v\nbrute  %+v", stage, anchor, want, brute)
			}
			if !reflect.DeepEqual(correlateKeys(got), correlateKeys(want)) {
				t.Fatalf("%s anchor %q: N=3 diverged from N=1:\nN=3 %v\nN=1 %v", stage, anchor, correlateKeys(got), correlateKeys(want))
			}
		}
	}
	query("seed")

	ctx := context.Background()
	const rounds = 12
	for round := 1; round <= rounds; round++ {
		for _, srv := range []*Server{one, three} {
			if _, err := srv.AddAnnotations(ctx, []AnnotationUpdate{
				{Tuple: round % 10, Annotation: "Annot_round:x"},
				{Tuple: (round + 3) % 10, Annotation: "Annot_q:1"},
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.AddTuples(ctx, []TupleSpec{
				{Values: []string{"28", "85", fmt.Sprintf("round=%d", round)}, Annotations: []string{"Annot_q:1", "Annot_round:x"}},
				{Values: []string{"62", fmt.Sprintf("round=%d", round)}, Annotations: []string{"Annot_src:a"}},
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.RemoveAnnotations(ctx, []AnnotationUpdate{{Tuple: (round + 1) % 10, Annotation: "Annot_q:5"}}); err != nil {
				t.Fatal(err)
			}
		}
		query(fmt.Sprintf("round %d", round))
	}
}

// TestCorrelateEquivalenceUnderLiveWrites is the acceptance property under
// concurrency: while writers churn annotations and append tuples carrying
// the data-value anchors — so the writer keeps setting bits past the lengths
// older generations hold — every reader pins published snapshots and the
// bitmap answer on each, the current one and older ones re-queried later,
// must equal the O(N·M) brute-force recomputation over the same frozen view. Run under -race by the CI race
// job.
func TestCorrelateEquivalenceUnderLiveWrites(t *testing.T) {
	eng, err := NewEngine(shardedFixture(t), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(eng, ServeOptions{BatchWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, srv)

	ctx := context.Background()
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tok := fmt.Sprintf("Annot_live:%d_%d", g, i%3)
				idx := (g*3 + i) % 10
				if _, err := srv.AddAnnotations(ctx, []AnnotationUpdate{{Tuple: idx, Annotation: tok}}); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
				if _, err := srv.RemoveAnnotations(ctx, []AnnotationUpdate{{Tuple: idx, Annotation: tok}}); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	writers.Add(1)
	go func() {
		defer writers.Done()
		// Bounded, so the brute-force oracle stays cheap under -race.
		for i := 0; i < 300; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := srv.AddTuples(ctx, []TupleSpec{
				{Values: []string{"28", "85", fmt.Sprintf("live=%d", i%5)}, Annotations: []string{"Annot_q:1"}},
				{Values: []string{"85", "41"}, Annotations: []string{"Annot_q:5"}},
			}); err != nil {
				t.Errorf("tuple writer: %v", err)
				return
			}
		}
	}()

	anchors := []string{"Annot_q:1", "Annot_q:5", "28", "85", "Annot_live:0_0"}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var pinned []*serve.Snapshot
			for i := 0; i < 150; i++ {
				q := correlate.Query{Anchor: anchors[(r+i)%len(anchors)], K: 1 + i%8, MinLift: float64(i%2) * 0.8}
				if q.MinLift == 0 {
					q.MinLift = correlate.DefaultMinLift
				}
				pinned = append(pinned, srv.router.Snapshots()[0].Snap)
				// The newest generation, then one pinned up to 32 reads ago.
				for _, snap := range []*serve.Snapshot{pinned[i], pinned[max(0, i-1-(r+i)%32)]} {
					got, gotErr := correlate.NewIndex(snap.View).TopK(q)
					want, wantErr := correlate.BruteForce(snap.View, q)
					if (gotErr != nil) != (wantErr != nil) {
						t.Errorf("reader %d seq %d anchor %q: index err %v, brute err %v", r, snap.Seq, q.Anchor, gotErr, wantErr)
						return
					}
					if gotErr == nil && !reflect.DeepEqual(got, want) {
						t.Errorf("reader %d seq %d anchor %q k=%d: bitmap answer diverged from recompute:\nindex %+v\nbrute %+v",
							r, snap.Seq, q.Anchor, q.K, got, want)
						return
					}
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestChurnAnomalySSEResumableAcrossRestart: a churn_anomaly event produced
// by the live detector lands in the durable event log, and a subscriber
// resuming from its cursor after a clean close and reopen replays exactly
// the anomaly it saw live.
func TestChurnAnomalySSEResumableAcrossRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	seed := filepath.Join(t.TempDir(), "dataset.txt")
	if err := shardedFixture(t).Save(seed); err != nil {
		t.Fatal(err)
	}
	open := func() *Server {
		eng, _, err := OpenDurable(seed, testOpts(), DurabilityOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(eng, ServeOptions{
			BatchWindow: -1,
			Stream:      StreamOptions{RetainSegments: -1},
			Correlate:   CorrelateOptions{Anomalies: true, AnomalyWindow: 25 * time.Millisecond, AnomalyThreshold: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	srv := open()
	if !srv.CorrelateStats().DetectorRunning {
		t.Fatal("detector not running despite CorrelateOptions.Anomalies")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	ch, err := srv.Subscribe(ctx, SubscribeOptions{Kinds: []string{EventChurnAnomaly}, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}

	// Seed a small churn baseline, go silent so it decays, then churn hard
	// until a window spikes past threshold × baseline.
	churnRound(t, srv, 0)
	time.Sleep(150 * time.Millisecond)
	var live Event
	deadline := time.After(20 * time.Second)
burst:
	for i := 1; ; i++ {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("subscription closed before an anomaly")
			}
			live = ev
			break burst
		case <-deadline:
			t.Fatalf("no churn_anomaly after %d churn rounds (stats %+v)", i, srv.CorrelateStats())
		default:
			churnRound(t, srv, i)
			// Pace the churn: several rounds per 25ms window is far above
			// threshold × the decayed baseline, while keeping the WAL the
			// post-restart reopen must replay small.
			time.Sleep(2 * time.Millisecond)
		}
	}
	cancel()
	if live.Kind != EventChurnAnomaly || live.Cursor == 0 || live.Family == "" || live.Count == 0 {
		t.Fatalf("live anomaly incomplete: %+v", live)
	}
	if live.WindowMillis != 25 {
		t.Fatalf("live anomaly window = %dms, want 25", live.WindowMillis)
	}
	if srv.CorrelateStats().Anomalies == 0 {
		t.Fatalf("detector counters missed its own emission: %+v", srv.CorrelateStats())
	}
	closeServer(t, srv)

	// Reopen the same directory: cursors are durable, so resuming from the
	// anomaly's own cursor replays it verbatim.
	srv2 := open()
	defer closeServer(t, srv2)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	ch2, err := srv2.Subscribe(ctx2, SubscribeOptions{FromSeq: live.Cursor, Kinds: []string{EventChurnAnomaly}, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got, ok := <-ch2:
		if !ok {
			t.Fatal("resumed subscription closed without replaying the anomaly")
		}
		if got.Kind == EventGap {
			t.Fatalf("resume hit a gap despite unlimited retention: %+v", got)
		}
		if got.Cursor != live.Cursor || got.Kind != live.Kind || got.Family != live.Family ||
			got.WindowMillis != live.WindowMillis || got.Count != live.Count ||
			got.Baseline != live.Baseline || !reflect.DeepEqual(got.Related, live.Related) {
			t.Fatalf("replayed anomaly diverged:\nreplayed %+v\nlive     %+v", got, live)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("replay of the anomaly cursor timed out")
	}
}
