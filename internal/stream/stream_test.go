package stream

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
	"annotadb/internal/wal"
)

// testWorld builds a dictionary plus helpers for making rules out of
// annotation tokens.
type testWorld struct {
	t    *testing.T
	dict *relation.Dictionary
}

func newWorld(t *testing.T) *testWorld {
	return &testWorld{t: t, dict: relation.New().Dictionary()}
}

// rule builds an annotation-to-annotation rule lhs => rhs with counts.
func (w *testWorld) rule(lhs, rhs string, pattern, lhsCount, n int) rules.Rule {
	w.t.Helper()
	l, err := w.dict.InternAnnotation(lhs)
	if err != nil {
		w.t.Fatal(err)
	}
	r, err := w.dict.InternAnnotation(rhs)
	if err != nil {
		w.t.Fatal(err)
	}
	return rules.Rule{LHS: itemset.New(l), RHS: r, PatternCount: pattern, LHSCount: lhsCount, N: n}
}

func setOf(rs ...rules.Rule) *rules.View {
	s := rules.NewSet()
	for _, r := range rs {
		s.Add(r)
	}
	return s.Freeze()
}

func TestDiffSemantics(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	stay := w.rule("Annot_a:1", "Annot_a:2", 5, 6, 10)
	stayBumped := stay
	stayBumped.PatternCount = 6
	promoted := w.rule("Annot_b:1", "Annot_b:2", 3, 5, 10)
	demoted := w.rule("Annot_c:1", "Annot_c:2", 4, 5, 10)
	added := w.rule("Annot_d:1", "Annot_d:2", 7, 8, 10)
	retired := w.rule("Annot_e:1", "Annot_e:2", 2, 9, 10)
	candNew := w.rule("Annot_f:1", "Annot_f:2", 2, 8, 10)
	candGone := w.rule("Annot_g:1", "Annot_g:2", 2, 8, 10)

	prev := TierViews{
		Valid:      setOf(stay, demoted, retired),
		Candidates: setOf(promoted, candGone),
	}
	next := TierViews{
		Valid:      setOf(stayBumped, promoted, added),
		Candidates: setOf(demoted, candNew),
	}
	events := Diff(prev, next, w.dict)

	byKey := map[string]Event{}
	for _, ev := range events {
		byKey[string(ev.Kind)+" "+ev.RHS] = ev
		if ev.Cursor != 0 || ev.Seq != 0 {
			t.Errorf("Diff stamped cursor/seq: %+v", ev)
		}
	}
	want := map[string]Tier{
		"confidence_changed Annot_a:2": TierValid,
		"rule_promoted Annot_b:2":      TierValid,
		"rule_demoted Annot_c:2":       TierValid,
		"rule_added Annot_d:2":         TierValid,
		"rule_retired Annot_e:2":       TierValid,
		"rule_added Annot_f:2":         TierCandidate,
		"rule_retired Annot_g:2":       TierCandidate,
	}
	if len(events) != len(want) {
		t.Fatalf("Diff produced %d events, want %d: %+v", len(events), len(want), events)
	}
	for key, tier := range want {
		ev, ok := byKey[key]
		if !ok {
			t.Errorf("missing event %q", key)
			continue
		}
		if ev.Tier != tier {
			t.Errorf("%q tier = %q, want %q", key, ev.Tier, tier)
		}
	}

	// Old/new stamping per kind.
	if ev := byKey["confidence_changed Annot_a:2"]; ev.Old == nil || ev.New == nil ||
		ev.Old.PatternCount != 5 || ev.New.PatternCount != 6 {
		t.Errorf("confidence_changed old/new wrong: %+v", ev)
	}
	if ev := byKey["rule_promoted Annot_b:2"]; ev.Old == nil || ev.New == nil {
		t.Errorf("promoted should carry both sides: %+v", ev)
	}
	if ev := byKey["rule_added Annot_d:2"]; ev.Old != nil || ev.New == nil {
		t.Errorf("added should carry only new: %+v", ev)
	}
	if ev := byKey["rule_retired Annot_e:2"]; ev.Old == nil || ev.New != nil {
		t.Errorf("retired should carry only old: %+v", ev)
	}
	if ev := byKey["rule_promoted Annot_b:2"]; ev.Family != "Annot_b" {
		t.Errorf("family = %q, want Annot_b", ev.Family)
	}

	// Pure denominator drift (N only) is not an event.
	nOnly := stayBumped
	nOnly.N = 11
	if evs := Diff(next, TierViews{Valid: setOf(nOnly, promoted, added), Candidates: next.Candidates}, w.dict); len(evs) != 0 {
		t.Errorf("N-only drift emitted %d events: %+v", len(evs), evs)
	}
}

func publishRounds(t *testing.T, b *Broker, w *testWorld, rounds int) []Event {
	t.Helper()
	pub := NewPublisher(b, 0, w.dict)
	var prev TierViews
	var all []Event
	n := 10
	for i := 0; i < rounds; i++ {
		n++
		r := w.rule("Annot_x:lhs", "Annot_x:rhs", 5+i, 6+i, n)
		next := TierViews{Valid: setOf(r)}
		pub.Publish(uint64(i+2), prev, next)
		prev = next
	}
	// Collect the canonical record for comparison.
	sub, err := b.Subscribe(context.Background(), SubscribeOptions{From: 1})
	if err != nil {
		t.Fatal(err)
	}
	timeout := time.After(5 * time.Second)
	for len(all) < rounds {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				t.Fatalf("subscription closed after %d of %d events", len(all), rounds)
			}
			all = append(all, ev)
		case <-timeout:
			t.Fatalf("timed out after %d of %d events", len(all), rounds)
		}
	}
	return all
}

func TestBrokerCursorResumeMatchesUninterrupted(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	b := NewBroker(Options{Ring: 512})
	defer b.Close()
	full := publishRounds(t, b, w, 50)

	// Resume from the middle: the tail must match the full record exactly.
	resumeAt := full[20].Cursor + 1
	sub, err := b.Subscribe(context.Background(), SubscribeOptions{From: resumeAt})
	if err != nil {
		t.Fatal(err)
	}
	for i := 21; i < len(full); i++ {
		select {
		case ev := <-sub.Events:
			if ev.Cursor != full[i].Cursor || ev.Kind != full[i].Kind || ev.Seq != full[i].Seq {
				t.Fatalf("resumed event %d = %+v, want %+v", i, ev, full[i])
			}
		case <-time.After(5 * time.Second):
			t.Fatal("resume timed out")
		}
	}
}

func TestBrokerSlowSubscriberGetsGapNotBlockedWriter(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	// Tiny ring + tiny channel: the subscriber cannot keep up by design.
	b := NewBroker(Options{Ring: 4})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := b.Subscribe(ctx, SubscribeOptions{From: 1, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Publish far more events than ring+buffer can hold, never blocking.
	done := make(chan struct{})
	go func() {
		defer close(done)
		publishRoundsNoRead(t, b, w, 200)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked by a slow subscriber")
	}
	// Drain now: the subscriber must observe at least one gap event whose
	// range is plausible, and afterwards the cursor order stays increasing.
	var sawGap bool
	var last uint64
	deadline := time.After(5 * time.Second)
drain:
	for {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				break drain
			}
			if ev.Kind == KindGap {
				sawGap = true
				if ev.From > ev.To {
					t.Errorf("gap range inverted: %+v", ev)
				}
				continue
			}
			if ev.Cursor <= last {
				t.Fatalf("cursor went backwards: %d after %d", ev.Cursor, last)
			}
			last = ev.Cursor
			if last == b.Stats().NextCursor-1 {
				break drain
			}
		case <-deadline:
			t.Fatal("drain timed out")
		}
	}
	if !sawGap {
		t.Error("slow subscriber never received a gap event")
	}
	if b.Stats().Gaps == 0 {
		t.Error("broker gap counter not incremented")
	}
}

// publishRoundsNoRead publishes rounds of churn without subscribing.
func publishRoundsNoRead(t *testing.T, b *Broker, w *testWorld, rounds int) {
	t.Helper()
	pub := NewPublisher(b, 0, w.dict)
	var prev TierViews
	n := 10
	for i := 0; i < rounds; i++ {
		n++
		r := w.rule("Annot_x:lhs", "Annot_x:rhs", 5+i, 6+i, n)
		next := TierViews{Valid: setOf(r)}
		pub.Publish(uint64(i+2), prev, next)
		prev = next
	}
}

func TestBrokerDurableResumeAcrossReopen(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "events")
	w := newWorld(t)
	open := func() *Broker {
		log, err := wal.OpenSegmented(wal.SegmentedOptions{Dir: dir, SegmentBytes: 256, RetainSegments: -1})
		if err != nil {
			t.Fatal(err)
		}
		return NewBroker(Options{Ring: 8, Log: log})
	}
	b := open()
	full := publishRounds(t, b, w, 40)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: cursors continue, and a subscriber resuming from the start
	// replays the whole durable history even though the ring saw only the
	// final 8 events.
	b2 := open()
	defer b2.Close()
	if next := b2.Stats().NextCursor; next != full[len(full)-1].Cursor+1 {
		t.Fatalf("reopened NextCursor = %d, want %d", next, full[len(full)-1].Cursor+1)
	}
	sub, err := b2.Subscribe(context.Background(), SubscribeOptions{From: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		select {
		case ev := <-sub.Events:
			if ev.Cursor != full[i].Cursor || ev.Kind != full[i].Kind ||
				ev.RHS != full[i].RHS || ev.Seq != full[i].Seq {
				t.Fatalf("replayed event %d = %+v, want %+v", i, ev, full[i])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("replay timed out at event %d", i)
		}
	}
}

func TestBrokerFiltersAndLiveSubscribe(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	b := NewBroker(Options{})
	defer b.Close()

	// Live subscription set up before any publish.
	ctx := context.Background()
	famSub, err := b.Subscribe(ctx, SubscribeOptions{From: 1, Families: []string{"Annot_k"}})
	if err != nil {
		t.Fatal(err)
	}
	kindSub, err := b.Subscribe(ctx, SubscribeOptions{From: 1, Kinds: []Kind{KindPromoted}})
	if err != nil {
		t.Fatal(err)
	}
	tierSub, err := b.Subscribe(ctx, SubscribeOptions{From: 1, Tier: TierCandidate})
	if err != nil {
		t.Fatal(err)
	}

	pub := NewPublisher(b, 0, w.dict)
	rk := w.rule("Annot_k:1", "Annot_k:2", 5, 6, 10)
	rm := w.rule("Annot_m:1", "Annot_m:2", 5, 6, 10)
	cand := w.rule("Annot_p:1", "Annot_p:2", 2, 9, 10)
	// Round 1: rk added to candidates of... build: prev empty → rk,rm added valid; cand added candidate.
	pub.Publish(2, TierViews{}, TierViews{Valid: setOf(rk, rm), Candidates: setOf(cand)})
	// Round 2: cand promoted.
	pub.Publish(3, TierViews{Valid: setOf(rk, rm), Candidates: setOf(cand)},
		TierViews{Valid: setOf(rk, rm, cand)})

	recv := func(sub *Subscription) Event {
		t.Helper()
		select {
		case ev := <-sub.Events:
			return ev
		case <-time.After(5 * time.Second):
			t.Fatal("filter receive timed out")
			return Event{}
		}
	}
	if ev := recv(famSub); ev.Family != "Annot_k" || ev.Kind != KindAdded {
		t.Errorf("family filter delivered %+v", ev)
	}
	if ev := recv(kindSub); ev.Kind != KindPromoted || ev.RHS != "Annot_p:2" {
		t.Errorf("kind filter delivered %+v", ev)
	}
	if ev := recv(tierSub); ev.Tier != TierCandidate || ev.RHS != "Annot_p:2" {
		t.Errorf("tier filter delivered %+v", ev)
	}
}

// TestChurnAnomalyRoundTripAndFilter: the churn_anomaly kind carries its
// window payload through the durable encoding, and a Kinds filter isolates
// it from the rule churn it rides alongside.
func TestChurnAnomalyRoundTripAndFilter(t *testing.T) {
	t.Parallel()
	ev := Event{
		Cursor: 9, Seq: 12, Kind: KindChurnAnomaly, Family: "Annot_k",
		WindowMillis: 5000, Count: 37, Baseline: 4.25, Related: []string{"Annot_m", "Annot_p"},
	}
	raw, err := EncodeEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEvent(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindChurnAnomaly || got.Family != "Annot_k" ||
		got.WindowMillis != 5000 || got.Count != 37 || got.Baseline != 4.25 ||
		!reflect.DeepEqual(got.Related, []string{"Annot_m", "Annot_p"}) {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	b := NewBroker(Options{})
	defer b.Close()
	sub, err := b.Subscribe(context.Background(), SubscribeOptions{From: 1, Kinds: []Kind{KindChurnAnomaly}})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(0, 1, []Event{
		{Kind: KindAdded, Tier: TierValid, Family: "Annot_k", RHS: "Annot_k:2"},
		{Kind: KindChurnAnomaly, Family: "Annot_k", WindowMillis: 100, Count: 8, Baseline: 1, Related: []string{"Annot_m"}},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Events:
		if ev.Kind != KindChurnAnomaly || ev.Count != 8 || len(ev.Related) != 1 {
			t.Fatalf("kind filter delivered %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("filtered churn_anomaly never arrived")
	}
}

func TestBrokerShardedSeqVectorMonotone(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	b := NewBroker(Options{Shards: 3})
	defer b.Close()
	pubs := []*Publisher{
		NewPublisher(b, 0, w.dict),
		NewPublisher(b, 1, w.dict),
		NewPublisher(b, 2, w.dict),
	}
	// Interleave publishes from three shards.
	for i := 0; i < 12; i++ {
		s := i % 3
		r := w.rule("Annot_x:lhs", "Annot_x:rhs", 5+i, 6+i, 10+i)
		var prev TierViews
		if i >= 3 {
			p := w.rule("Annot_x:lhs", "Annot_x:rhs", 5+i-3, 6+i-3, 10+i-3)
			prev = TierViews{Valid: setOf(p)}
		}
		pubs[s].Publish(uint64(i/3+2), prev, TierViews{Valid: setOf(r)})
	}
	sub, err := b.Subscribe(context.Background(), SubscribeOptions{From: 1})
	if err != nil {
		t.Fatal(err)
	}
	var prevVec []uint64
	var prevSum uint64
	for i := 0; i < 12; i++ {
		select {
		case ev := <-sub.Events:
			if len(ev.SeqVector) != 3 {
				t.Fatalf("event %d seq vector %v, want 3 components", i, ev.SeqVector)
			}
			var sum uint64
			for s, c := range ev.SeqVector {
				sum += c
				if prevVec != nil && c < prevVec[s] {
					t.Fatalf("seq vector regressed at event %d: %v after %v", i, ev.SeqVector, prevVec)
				}
			}
			if ev.Seq != sum {
				t.Fatalf("event %d Seq = %d, want vector sum %d", i, ev.Seq, sum)
			}
			if sum < prevSum {
				t.Fatalf("seq sum regressed at event %d", i)
			}
			if ev.SeqVector[ev.Shard] == 0 {
				t.Fatalf("event %d from shard %d has zero own-seq: %v", i, ev.Shard, ev.SeqVector)
			}
			prevVec, prevSum = ev.SeqVector, sum
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at event %d", i)
		}
	}
}

func TestEventEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	ev := Event{
		Cursor: 42, Seq: 7, SeqVector: []uint64{3, 4}, Shard: 1,
		Kind: KindPromoted, Tier: TierValid, Family: "Annot_k",
		LHS: []string{"Annot_k:1"}, RHS: "Annot_k:2",
		Old: &RuleStat{PatternCount: 3, LHSCount: 5, N: 10},
		New: &RuleStat{PatternCount: 4, LHSCount: 5, N: 10},
	}
	raw, err := EncodeEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEvent(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cursor != ev.Cursor || got.Kind != ev.Kind || got.RHS != ev.RHS ||
		got.Old == nil || got.Old.PatternCount != 3 || got.New.Confidence != 0.8 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// A payload as the event log held it before RuleStat stored its ratios
	// (counts only): the ratios come back from the counts.
	const countsOnly = `{"cursor":7,"seq":3,"shard":0,"kind":"confidence_changed","tier":"valid","family":"Annot_q","lhs":["28","85"],"rhs":"Annot_q:1","old":{"pattern_count":5,"lhs_count":6,"n":13},"new":{"pattern_count":6,"lhs_count":6,"n":13}}`
	old, err := DecodeEvent([]byte(countsOnly))
	if err != nil {
		t.Fatal(err)
	}
	if want := (RuleStat{PatternCount: 5, LHSCount: 6, N: 13, Support: 5.0 / 13, Confidence: 5.0 / 6}); *old.Old != want {
		t.Errorf("counts-only old side decoded to %+v, want %+v", *old.Old, want)
	}
	if want := (RuleStat{PatternCount: 6, LHSCount: 6, N: 13, Support: 6.0 / 13, Confidence: 1}); *old.New != want {
		t.Errorf("counts-only new side decoded to %+v, want %+v", *old.New, want)
	}
	// Stored ratios that disagree with the counts lose to the counts.
	if ev, err := DecodeEvent([]byte(`{"cursor":1,"kind":"rule_added","new":{"pattern_count":1,"lhs_count":2,"n":4,"support":9,"confidence":9}}`)); err != nil ||
		ev.New.Support != 0.25 || ev.New.Confidence != 0.5 {
		t.Errorf("stored ratios survived decoding: %+v, %v", ev.New, err)
	}
	if _, err := DecodeEvent([]byte(`{"kind":"bogus","cursor":1}`)); err == nil {
		t.Error("DecodeEvent accepted an unknown kind")
	}
	if _, err := DecodeEvent([]byte(`{"kind":"rule_added"}`)); err == nil {
		t.Error("DecodeEvent accepted a missing cursor")
	}
	if c, err := ParseCursor(" 42\n"); err != nil || c != 42 {
		t.Errorf("ParseCursor = %d, %v", c, err)
	}
	if _, err := ParseCursor("-1"); err == nil {
		t.Error("ParseCursor accepted a negative cursor")
	}
}

// TestRingServesCursorsTheLogRetentionTrimmed is the regression test for a
// live-subscriber bug: with aggressive segment retention (tiny segments,
// few retained) but a ring that still buffers the whole history, a reader
// below the log's trimmed floor must be served from the ring — never
// handed a gap for events the broker still holds in memory.
func TestRingServesCursorsTheLogRetentionTrimmed(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "events")
	log, err := wal.OpenSegmented(wal.SegmentedOptions{Dir: dir, SegmentBytes: 256, RetainSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(t)
	b := NewBroker(Options{Ring: 4096, Log: log})
	defer b.Close()
	publishRoundsNoRead(t, b, w, 60)
	if log.Stats().RetentionTrims == 0 {
		t.Fatal("fixture never trimmed; the regression is not exercised")
	}
	if logFirst := log.FirstCursor(); logFirst <= 1 {
		t.Fatalf("log floor = %d, want > 1 after trims", logFirst)
	}
	// The full history replays gap-free from the ring.
	sub, err := b.Subscribe(context.Background(), SubscribeOptions{From: 1})
	if err != nil {
		t.Fatal(err)
	}
	next := b.Stats().NextCursor
	for want := uint64(1); want < next; want++ {
		select {
		case ev := <-sub.Events:
			if ev.Kind == KindGap {
				t.Fatalf("gap delivered for cursors the ring still holds: %+v", ev)
			}
			if ev.Cursor != want {
				t.Fatalf("cursor %d delivered, want %d", ev.Cursor, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at cursor %d", want)
		}
	}
	if b.Stats().FirstCursor != 1 {
		t.Errorf("resumable floor = %d, want 1 (the ring still reaches back)", b.Stats().FirstCursor)
	}
}

// flakyLog wraps a real segment log and starts failing appends after a
// set number of successes.
type flakyLog struct {
	*wal.SegmentedLog
	successes int
	appends   int
}

func (f *flakyLog) Append(payloads ...[]byte) (uint64, error) {
	f.appends++
	if f.appends > f.successes {
		return 0, errors.New("disk full")
	}
	return f.SegmentedLog.Append(payloads...)
}

// TestLogAppendFailureLatchesDeadWithoutCursorSkew is the regression test
// for the cursor-desync bug: one failed segment-log append must kill the
// log (its intact positional prefix stays readable, nothing is appended
// over the hole) rather than skewing every later record one position off
// its embedded cursor. Publishing continues ring-only, and a full replay
// still delivers every event exactly once in cursor order.
func TestLogAppendFailureLatchesDeadWithoutCursorSkew(t *testing.T) {
	t.Parallel()
	seg, err := wal.OpenSegmented(wal.SegmentedOptions{Dir: filepath.Join(t.TempDir(), "events")})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyLog{SegmentedLog: seg, successes: 10}
	w := newWorld(t)
	b := NewBroker(Options{Ring: 1024, Log: flaky})
	defer b.Close()
	publishRoundsNoRead(t, b, w, 40)

	st := b.Stats()
	if st.LogErrors == 0 {
		t.Fatal("failed appends not counted")
	}
	if flaky.appends != 11 {
		t.Errorf("log received %d appends after the failure, want 11 (latched dead at the first)", flaky.appends)
	}
	if seg.NextCursor() != 11 {
		t.Errorf("log next cursor = %d, want 11 (intact prefix only)", seg.NextCursor())
	}
	// Full replay: the intact prefix comes off the log, the rest off the
	// ring, every cursor exactly once and matching its embedded value.
	sub, err := b.Subscribe(context.Background(), SubscribeOptions{From: 1})
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want < st.NextCursor; want++ {
		select {
		case ev := <-sub.Events:
			if ev.Kind == KindGap {
				t.Fatalf("gap during ring-covered replay: %+v", ev)
			}
			if ev.Cursor != want {
				t.Fatalf("cursor %d delivered, want %d (positional skew)", ev.Cursor, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at cursor %d", want)
		}
	}
}

// TestLogBatchFailureCountsEveryEvent pins the batch form of the dead-log
// latch: a publish reaches the segment log as one append, a failed append
// counts every event of its publish as a log error, and no later publish
// reaches the dead log.
func TestLogBatchFailureCountsEveryEvent(t *testing.T) {
	t.Parallel()
	seg, err := wal.OpenSegmented(wal.SegmentedOptions{Dir: filepath.Join(t.TempDir(), "events")})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyLog{SegmentedLog: seg, successes: 1}
	b := NewBroker(Options{Log: flaky})
	defer b.Close()
	batch := func(n int) []Event {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{Kind: KindAdded, Tier: TierValid, Family: "Annot_x", RHS: "Annot_x:rhs"}
		}
		return evs
	}
	for i, n := range []int{3, 4, 2} {
		if err := b.Publish(0, uint64(i+2), batch(n)); err != nil {
			t.Fatal(err)
		}
	}
	if flaky.appends != 2 {
		t.Errorf("log received %d appends for three publishes, want 2 (one per publish until the failure)", flaky.appends)
	}
	if got := seg.NextCursor(); got != 4 {
		t.Errorf("log next cursor = %d, want 4 (the first publish only)", got)
	}
	if got := b.Stats().LogErrors; got != 4 {
		t.Errorf("LogErrors = %d, want 4 (every event of the failed publish)", got)
	}
}
