package serve

import (
	"context"
	"testing"
	"time"

	"annotadb/internal/relation"
	"annotadb/internal/stream"
)

// TestWriterPublishesChurnEvents pins the serve-side streaming contract:
// the initial publish is a silent baseline, and every later publish diffs
// the outgoing and incoming tiers into events stamped with the new
// snapshot's Seq, appended before the write is acknowledged.
func TestWriterPublishesChurnEvents(t *testing.T) {
	rel := fixture()
	broker := stream.NewBroker(stream.Options{})
	defer broker.Close()
	pub := stream.NewPublisher(broker, 0, rel.Dictionary())
	s, _ := mustServer(t, rel, testCfg(), Config{BatchWindow: -1, Stream: pub})

	// The bootstrap publish must not have streamed the whole rule set.
	if st := broker.Stats(); st.EventsPublished != 0 {
		t.Fatalf("initial publish emitted %d events, want 0 (baseline)", st.EventsPublished)
	}

	ctx := context.Background()
	sub, err := broker.Subscribe(ctx, stream.SubscribeOptions{From: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Attach Annot_1 to tuple 5: {28,41} now supports 28⇒Annot_1 and
	// friends — confidence counts move, so churn must flow.
	dict := rel.Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	rep, err := s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: 5, Annotation: a1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Promoted+rep.Demoted+rep.Discovered+rep.Dropped == 0 && broker.Stats().EventsPublished == 0 {
		t.Skip("fixture produced no churn; nothing to assert")
	}

	snap := s.Snapshot()
	if snap.Candidates == nil {
		t.Fatal("snapshot carries no candidate tier")
	}
	// The acknowledged write's events are already in the broker (publish
	// precedes the ack), stamped with the published snapshot's Seq.
	st := broker.Stats()
	if st.EventsPublished == 0 {
		t.Fatal("churn-producing batch emitted no events")
	}
	deadline := time.After(5 * time.Second)
	for i := uint64(0); i < st.EventsPublished; i++ {
		select {
		case ev := <-sub.Events:
			if ev.Seq != snap.Seq {
				t.Errorf("event %d stamped seq %d, want snapshot seq %d", i, ev.Seq, snap.Seq)
			}
			if ev.RHS == "" || !stream.ValidKind(ev.Kind) {
				t.Errorf("malformed event: %+v", ev)
			}
		case <-deadline:
			t.Fatalf("timed out at event %d of %d", i, st.EventsPublished)
		}
	}
}
