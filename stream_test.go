package annotadb

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// eventKey flattens the identity a resumed subscriber must reproduce
// exactly: position, classification, rule, and generation stamp.
func eventKey(ev Event) string {
	return fmt.Sprintf("c=%d k=%s t=%s f=%s rhs=%s lhs=%v seq=%d vec=%v shard=%d",
		ev.Cursor, ev.Kind, ev.Tier, ev.Family, ev.RHS, ev.LHS, ev.Seq, ev.SeqVector, ev.Shard)
}

func eventKeys(evs []Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = eventKey(ev)
	}
	return out
}

// drain consumes every event until the channel closes (server close ends
// subscriptions) or the deadline passes.
func drain(t *testing.T, ch <-chan Event, deadline time.Duration) []Event {
	t.Helper()
	var out []Event
	timer := time.After(deadline)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-timer:
			t.Fatalf("drain timed out after %d events", len(out))
		}
	}
}

// take consumes exactly n events, failing on close or timeout.
func take(t *testing.T, ch <-chan Event, n int, deadline time.Duration) []Event {
	t.Helper()
	out := make([]Event, 0, n)
	timer := time.After(deadline)
	for len(out) < n {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("subscription closed after %d of %d events", len(out), n)
			}
			out = append(out, ev)
		case <-timer:
			t.Fatalf("timed out after %d of %d events", len(out), n)
		}
	}
	return out
}

// churnRound drives one deterministic round of rule churn through the
// public write API: toggling Annot_q:5 on tuple 3 moves the q1⇒q5
// confidence across the 0.7 threshold (promotion, then demotion), and the
// Annot_src:a toggle on tuple 9 churns a second family (a different shard
// under sharding). Round i also appends a bare tuple every 4th round so
// denominator drift (which must NOT emit events) interleaves with churn.
func churnRound(t *testing.T, srv *Server, i int) {
	t.Helper()
	ctx := context.Background()
	updates := []AnnotationUpdate{{Tuple: 3, Annotation: "Annot_q:5"}}
	if i%2 == 0 {
		updates = append(updates, AnnotationUpdate{Tuple: 9, Annotation: "Annot_src:a"})
	}
	if _, err := srv.AddAnnotations(ctx, updates); err != nil {
		t.Fatal(err)
	}
	if i%4 == 3 {
		if _, err := srv.AddTuples(ctx, []TupleSpec{{Values: []string{"62", "40"}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.RemoveAnnotations(ctx, updates); err != nil {
		t.Fatal(err)
	}
}

// TestStreamResumeEquivalenceProperty is the subsystem's acceptance
// property: a subscriber disconnected mid-stream and resumed from its
// cursor — and one resuming across a full (clean) server restart —
// observes the exact event sequence an uninterrupted subscriber saw,
// including across event-segment rotation, unsharded and with 4 family
// shards. Run under -race by the CI race job.
func TestStreamResumeEquivalenceProperty(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			dir := filepath.Join(t.TempDir(), "data")
			seed := filepath.Join(t.TempDir(), "dataset.txt")
			if err := shardedFixture(t).Save(seed); err != nil {
				t.Fatal(err)
			}
			open := func() *Server {
				eng, _, err := OpenDurable(seed, testOpts(), DurabilityOptions{Dir: dir, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				srv, err := NewServer(eng, ServeOptions{
					BatchWindow: -1,
					Shards:      shards,
					// A tiny ring and tiny segments force both the
					// ring-overflow -> log read path and segment rotation;
					// retention is unlimited so no cursor is ever a gap.
					Stream: StreamOptions{Ring: 8, SegmentBytes: 512, RetainSegments: -1},
				})
				if err != nil {
					t.Fatal(err)
				}
				return srv
			}
			ctx := context.Background()
			srv := open()

			// A: the uninterrupted record of run 1.
			chA, err := srv.Subscribe(ctx, SubscribeOptions{FromSeq: 1, Buffer: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			// B: disconnects mid-stream.
			ctxB, cancelB := context.WithCancel(ctx)
			chB, err := srv.Subscribe(ctxB, SubscribeOptions{FromSeq: 1, Buffer: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}

			for i := 0; i < 10; i++ {
				churnRound(t, srv, i)
			}
			gotB := take(t, chB, 6, 30*time.Second)
			cancelB() // disconnect mid-stream

			for i := 10; i < 30; i++ {
				churnRound(t, srv, i)
			}
			// B resumes from its cursor (exclusive of what it saw).
			chB2, err := srv.Subscribe(ctx, SubscribeOptions{FromSeq: gotB[len(gotB)-1].Cursor + 1, Buffer: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			for i := 30; i < 40; i++ {
				churnRound(t, srv, i)
			}

			if srv.Sharded() {
				if err := srv.Health(); err != nil {
					t.Fatalf("healthy server degraded: %v", err)
				}
			}
			ev := srv.Durability().Events
			if ev == nil || ev.Rotations == 0 {
				t.Fatalf("event log never rotated (stats %+v); the property must cover rotation", ev)
			}
			closeServer(t, srv)

			run1 := drain(t, chA, 30*time.Second)
			if len(run1) < 20 {
				t.Fatalf("run 1 produced only %d events", len(run1))
			}
			gotB2 := drain(t, chB2, 30*time.Second)
			resumed := append(append([]Event{}, gotB...), gotB2...)
			if !reflect.DeepEqual(eventKeys(resumed), eventKeys(run1)) {
				t.Fatalf("disconnect+resume diverged from the uninterrupted record:\nresumed %d events\nfull    %d events\nresumed[0..]: %v\nfull[0..]:    %v",
					len(resumed), len(run1), head(eventKeys(resumed), 5), head(eventKeys(run1), 5))
			}
			for _, e := range run1 {
				if e.Kind == EventGap {
					t.Fatalf("uninterrupted subscriber saw a gap: %+v", e)
				}
				if shards > 1 && len(e.SeqVector) != shards {
					t.Fatalf("sharded event missing seq vector: %+v", e)
				}
			}

			// Full server restart: a subscriber resuming from a pre-restart
			// cursor must replay across the boundary into live run-2 events,
			// matching a fresh full-history subscriber exactly.
			srv2 := open()
			chFull, err := srv2.Subscribe(ctx, SubscribeOptions{FromSeq: 1, Buffer: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			midCursor := run1[len(run1)/2].Cursor
			chC, err := srv2.Subscribe(ctx, SubscribeOptions{FromSeq: midCursor, Buffer: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			for i := 40; i < 60; i++ {
				churnRound(t, srv2, i)
			}
			closeServer(t, srv2)

			full := drain(t, chFull, 30*time.Second)
			gotC := drain(t, chC, 30*time.Second)
			if len(full) <= len(run1) {
				t.Fatalf("run 2 produced no events beyond the %d replayed", len(run1))
			}
			// The replayed prefix is exactly run 1.
			if !reflect.DeepEqual(eventKeys(full[:len(run1)]), eventKeys(run1)) {
				t.Fatal("restarted replay diverged from the pre-restart record")
			}
			// And the cross-restart resumer matches the full record's suffix.
			var wantC []Event
			for _, e := range full {
				if e.Cursor >= midCursor {
					wantC = append(wantC, e)
				}
			}
			if !reflect.DeepEqual(eventKeys(gotC), eventKeys(wantC)) {
				t.Fatalf("cross-restart resume diverged: got %d events, want %d", len(gotC), len(wantC))
			}
		})
	}
}

func head(s []string, n int) []string {
	if len(s) < n {
		return s
	}
	return s[:n]
}

// TestStreamSlowSubscriberGapsWithoutBlockingWrites pins the slow-consumer
// policy on an in-memory server: with a 4-event ring and a 1-event buffer,
// a subscriber that never reads cannot slow the write path (every batch
// still acknowledges within the deadline), and on finally draining it
// receives a gap event bounding what it missed, with cursors still in
// order afterwards.
func TestStreamSlowSubscriberGapsWithoutBlockingWrites(t *testing.T) {
	t.Parallel()
	eng, err := NewEngine(shardedFixture(t), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(eng, ServeOptions{BatchWindow: -1, Stream: StreamOptions{Ring: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, srv)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := srv.Subscribe(ctx, SubscribeOptions{FromSeq: 1, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 60 churn rounds against a 5-slot pipeline: if delivery back-pressured
	// the writer, these synchronous writes would stall far past the bound.
	start := time.Now()
	for i := 0; i < 60; i++ {
		churnRound(t, srv, i)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("writes took %v with a stalled subscriber; the writer is being blocked", elapsed)
	}
	published := srv.StreamStats().EventsPublished
	if published < 60 {
		t.Fatalf("only %d events published", published)
	}

	var sawGap bool
	var last uint64
	var received uint64
	deadline := time.After(30 * time.Second)
	for received < published {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("subscription closed early")
			}
			if ev.Kind == EventGap {
				sawGap = true
				if ev.From > ev.To || ev.To < last {
					t.Fatalf("gap range inconsistent: %+v after cursor %d", ev, last)
				}
				received += ev.To - ev.From + 1
				last = ev.To
				continue
			}
			if ev.Cursor <= last {
				t.Fatalf("cursor went backwards: %d after %d", ev.Cursor, last)
			}
			received += ev.Cursor - last
			last = ev.Cursor
		case <-deadline:
			t.Fatalf("accounted for %d of %d events", received, published)
		}
	}
	if !sawGap {
		t.Error("stalled subscriber never received a gap event")
	}
	if srv.StreamStats().GapEvents == 0 {
		t.Error("gap counter did not move")
	}
}

// TestStreamDisabledAndSubscribeValidation covers the off switch and the
// filter validation surface of the public API.
func TestStreamDisabledAndSubscribeValidation(t *testing.T) {
	t.Parallel()
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
	if _, err := srv.Subscribe(ctx, SubscribeOptions{Kinds: []string{"bogus"}}); err == nil {
		t.Error("Subscribe accepted an unknown kind")
	}
	if _, err := srv.Subscribe(ctx, SubscribeOptions{Kinds: []string{EventGap}}); err == nil {
		t.Error("Subscribe accepted gap as a kind filter (gaps are unconditional)")
	}
	if _, err := srv.Subscribe(ctx, SubscribeOptions{Tier: "bogus"}); err == nil {
		t.Error("Subscribe accepted an unknown tier")
	}

	off, err := NewEngine(shardedFixture(t), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	dark, err := NewServer(off, ServeOptions{Stream: StreamOptions{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, dark)
	if _, err := dark.Subscribe(ctx, SubscribeOptions{}); !errors.Is(err, ErrStreamDisabled) {
		t.Errorf("disabled Subscribe err = %v, want ErrStreamDisabled", err)
	}
	if st := dark.Stats().Stream; st != nil {
		t.Errorf("disabled server reports a stream section: %+v", st)
	}
	if st := dark.StreamStats(); !reflect.DeepEqual(st, StreamStats{}) {
		t.Errorf("disabled server reports stream counters: %+v", st)
	}
}

// TestStreamStatsPerShard: StreamStats.PerShard is nil on an unsharded
// server, like ServerStats.PerShard, and on a sharded one has an entry per
// shard that sums to EventsPublished; ServerStats carries the same section.
func TestStreamStatsPerShard(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, err := NewShardedServer(shardedFixture(t), testOpts(), ServeOptions{BatchWindow: -1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer closeServer(t, srv)
			for i := 0; i < 4; i++ {
				churnRound(t, srv, i)
			}
			st := srv.StreamStats()
			if st.EventsPublished == 0 {
				t.Fatalf("churn published nothing: %+v", st)
			}
			if shards == 1 {
				if st.PerShard != nil {
					t.Errorf("unsharded PerShard = %v, want nil", st.PerShard)
				}
			} else {
				var sum uint64
				for _, n := range st.PerShard {
					sum += n
				}
				if len(st.PerShard) != shards || sum != st.EventsPublished {
					t.Errorf("PerShard = %v, want %d entries summing to %d", st.PerShard, shards, st.EventsPublished)
				}
			}
			if got := srv.Stats().Stream; got == nil || !reflect.DeepEqual(*got, st) {
				t.Errorf("ServerStats.Stream = %+v, want %+v", got, st)
			}
		})
	}
}

// TestDurableEventLogFollowsFlushWindow: the durable event log flushes
// under DurabilityOptions.FlushWindow, the durable store's one flush window,
// whatever the Fsync policy. A non-zero window fsyncs the active segment in
// the background after a write, without Close; a zero window leaves the
// tail to rotation and Close.
func TestDurableEventLogFollowsFlushWindow(t *testing.T) {
	for _, fsync := range []string{"always", "interval"} {
		for _, window := range []time.Duration{time.Millisecond, -1, 0} {
			fsync, window := fsync, window
			t.Run(fmt.Sprintf("fsync=%s/window=%v", fsync, window), func(t *testing.T) {
				t.Parallel()
				eng, _, err := OpenDurableDataset(shardedFixture(t), testOpts(), DurabilityOptions{
					Dir:         t.TempDir(),
					Fsync:       fsync,
					FlushWindow: window,
				})
				if err != nil {
					t.Fatal(err)
				}
				srv, err := NewServer(eng, ServeOptions{BatchWindow: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer closeServer(t, srv)
				// Raises 28 85 → Annot_q:5 to confidence 4/5: a promotion.
				if _, err := srv.AddAnnotations(context.Background(), []AnnotationUpdate{{Tuple: 3, Annotation: "Annot_q:5"}}); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(10 * time.Second)
				for srv.Durability().Events.Appends == 0 {
					if time.Now().After(deadline) {
						t.Fatal("the write appended no event to the durable log")
					}
					time.Sleep(time.Millisecond)
				}
				if window == 0 {
					time.Sleep(100 * time.Millisecond)
					if ev := srv.Durability().Events; ev.Syncs != 0 {
						t.Fatalf("window 0 fsynced the event log %d times before Close, want 0", ev.Syncs)
					}
					return
				}
				for srv.Durability().Events.Syncs == 0 {
					if time.Now().After(deadline) {
						t.Fatalf("window %v never fsynced the event log's tail before Close", window)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
