package stream

import (
	"context"
	"fmt"
	"testing"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
	"annotadb/internal/wal"
)

// BenchmarkEventFanout measures publish latency as the subscriber count
// grows (0, 1, 8, 64 live subscribers, each with a draining consumer): the
// slow-subscriber policy's core claim is that the publish path costs the
// writer O(events) regardless of fanout, because delivery happens on the
// subscribers' pump goroutines. Each iteration publishes one generation
// diff worth of churn (8 events). The durable case adds the segment-log
// append a durable server pays per publish.
func BenchmarkEventFanout(b *testing.B) {
	for _, subs := range []int{0, 1, 8, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			benchFanout(b, subs, NewBroker(Options{Ring: 4096}))
		})
	}
	b.Run("durable/subs=1", func(b *testing.B) {
		log, err := wal.OpenSegmented(wal.SegmentedOptions{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		benchFanout(b, 1, NewBroker(Options{Ring: 4096, Log: log}))
	})
}

// benchFanout publishes 8 confidence_changed events per iteration to broker
// with subs draining subscribers and one stalled one, then closes broker.
func benchFanout(b *testing.B, subs int, broker *Broker) {
	dict := relation.New().Dictionary()
	mkRule := func(i, pattern int) rules.Rule {
		l, err := dict.InternAnnotation(fmt.Sprintf("Annot_f%d:lhs", i))
		if err != nil {
			b.Fatal(err)
		}
		r, err := dict.InternAnnotation(fmt.Sprintf("Annot_f%d:rhs", i))
		if err != nil {
			b.Fatal(err)
		}
		return rules.Rule{LHS: itemset.New(l), RHS: r, PatternCount: pattern, LHSCount: pattern + 2, N: 100}
	}
	views := func(pattern int) TierViews {
		s := rules.NewSet()
		for i := 0; i < 8; i++ {
			s.Add(mkRule(i, pattern))
		}
		return TierViews{Valid: s.Freeze()}
	}
	defer broker.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < subs; i++ {
		sub, err := broker.Subscribe(ctx, SubscribeOptions{Buffer: 256})
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			for range sub.Events {
			}
		}()
	}
	// One deliberately stalled subscriber (never reads): the gap
	// policy, not the writer, absorbs it — publish latency must not
	// depend on it.
	if _, err := broker.Subscribe(ctx, SubscribeOptions{Buffer: 1}); err != nil {
		b.Fatal(err)
	}
	pub := NewPublisher(broker, 0, dict)
	prev, next := views(10), views(11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate the count so every publish diffs to 8
		// confidence_changed events.
		if i%2 == 0 {
			pub.Publish(uint64(i+2), prev, next)
		} else {
			pub.Publish(uint64(i+2), next, prev)
		}
	}
	b.StopTimer()
	if pub.Errors() > 0 {
		b.Fatalf("publish errors: %d", pub.Errors())
	}
	if n := broker.Stats().LogErrors; n > 0 {
		b.Fatalf("segment log errors: %d", n)
	}
}
