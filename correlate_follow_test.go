// Follower-side correlation tests: anchor queries answered from replica
// snapshots match the primary once the watermark passes the last write, and
// replication stats expose wall-clock freshness next to the seq watermark.
package annotadb_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"annotadb"
)

// correlateKeys renders an answer as comparable strings.
func correlateKeys(a annotadb.CorrelateAnswer) []string {
	out := make([]string, 0, len(a.Results)+1)
	out = append(out, fmt.Sprintf("anchor=%s count=%d n=%d", a.Anchor, a.AnchorCount, a.N))
	for _, r := range a.Results {
		out = append(out, fmt.Sprintf("%s fam=%s co=%d freq=%d conf=%.12g lift=%.12g chi2=%.12g p=%.12g",
			r.Token, r.Family, r.Count, r.Frequency, r.Confidence, r.Lift, r.ChiSquare, r.PValue))
	}
	return out
}

// TestFollowerCorrelateMatchesPrimary: after the min_seq barrier admits a
// read, a follower's anchor answers are byte-identical to the primary's,
// and the advertised ReadSeq is the replication watermark.
func TestFollowerCorrelateMatchesPrimary(t *testing.T) {
	primary, _, ts, _ := startPrimary(t)
	defer closeServer(t, primary)
	fol := startFollower(t, ts.URL, annotadb.ServeOptions{BatchWindow: -1})

	// Shift the correlation structure away from the seed: a new annotation
	// co-occurring with Annot_1 on most of its tuples.
	ctx := context.Background()
	var maxSeq uint64
	for i := 0; i < 4; i++ {
		rep, err := primary.AddAnnotations(ctx, []annotadb.AnnotationUpdate{{Tuple: i, Annotation: "Annot_co"}})
		if err != nil {
			t.Fatal(err)
		}
		maxSeq = rep.Seq
	}
	if maxSeq == 0 {
		t.Fatal("no write was acknowledged")
	}
	waitFollowerSeq(t, fol, maxSeq)

	for _, anchor := range []string{"Annot_1", "Annot_5", "Annot_co", "28", "85", "12"} {
		for _, q := range []struct {
			k       int
			minLift float64
		}{{0, 0}, {5, 1.1}} {
			want, _, wantErr := primary.Correlate(anchor, q.k, q.minLift)
			got, rs, gotErr := fol.Correlate(anchor, q.k, q.minLift)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("anchor %q: follower err %v, primary err %v", anchor, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if rs.Seq < maxSeq {
				t.Fatalf("anchor %q: follower ReadSeq %d behind watermark %d", anchor, rs.Seq, maxSeq)
			}
			if !reflect.DeepEqual(correlateKeys(got), correlateKeys(want)) {
				t.Fatalf("anchor %q k=%d minLift=%v diverged:\nfollower %v\nprimary  %v",
					anchor, q.k, q.minLift, correlateKeys(got), correlateKeys(want))
			}
		}
	}
	if _, _, err := fol.Correlate("never-seen", 0, 0); !errors.Is(err, annotadb.ErrUnknownAnchor) {
		t.Fatalf("follower unknown anchor: got %v, want ErrUnknownAnchor", err)
	}

	// Replication stats pair the seq watermark with wall-clock freshness:
	// a follower that just applied records reports a small non-negative lag.
	rep := fol.Replication()
	if rep == nil {
		t.Fatal("follower reported no replication stats")
	}
	if rep.LagMillis < 0 || rep.LagMillis > 60_000 {
		t.Fatalf("replication lag_ms = %d, want fresh non-negative wall-clock lag", rep.LagMillis)
	}
}
