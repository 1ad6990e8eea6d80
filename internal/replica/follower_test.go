package replica

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/relation"
	"annotadb/internal/serve"
	"annotadb/internal/shard"
	"annotadb/internal/wal"
)

// serveSource mounts the replication endpoints of the source cur holds the
// way the HTTP API does; swapping cur restarts the primary behind the same
// URL. While hold is nonzero the log endpoint answers that status instead,
// so the follower backs off (503) or re-bootstraps (409) and cannot tail.
func serveSource(t *testing.T, cur *atomic.Pointer[Source], hold *atomic.Int32) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/replication/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		src := cur.Load()
		f, _, err := src.OpenCheckpoint()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		defer f.Close()
		w.Header().Set(HeaderRunID, src.RunID())
		io.Copy(w, f) //nolint:errcheck
	})
	mux.HandleFunc("/replication/log", func(w http.ResponseWriter, r *http.Request) {
		src := cur.Load()
		if code := hold.Load(); code != 0 {
			w.Header().Set(HeaderRunID, src.RunID())
			http.Error(w, "held", int(code))
			return
		}
		from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ch, err := src.Tail(from, 0)
		w.Header().Set(HeaderRunID, src.RunID())
		switch {
		case errors.Is(err, ErrConflict):
			http.Error(w, err.Error(), http.StatusConflict)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set(HeaderNext, strconv.FormatUint(ch.Next, 10))
		w.Header().Set(HeaderSeq, strconv.FormatUint(ch.Seq, 10))
		w.Header().Set(HeaderEnd, strconv.FormatUint(ch.End, 10))
		w.Write(ch.Data) //nolint:errcheck
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// write logs and applies one annotation, as the primary's writer does.
func write(t *testing.T, s *wal.Store, tuple int, token string) {
	t.Helper()
	logAnnotation(t, s, tuple, token)
	it, _ := s.Engine().Relation().Dictionary().Lookup(token)
	if _, err := s.Engine().AddAnnotations([]relation.AnnotationUpdate{{Index: tuple, Annotation: it}}); err != nil {
		t.Fatal(err)
	}
}

// renderedRules renders an engine's valid rules with its own dictionary.
func renderedRules(eng *incremental.Engine) []string {
	dict := eng.Relation().Dictionary()
	var out []string
	for _, r := range eng.RulesView().Sorted() {
		out = append(out, r.Format(dict))
	}
	return out
}

// startFollower starts a follower on the primary at url with a fast poll;
// the test's cleanup closes it.
func startFollower(t *testing.T, url string) *Follower {
	t.Helper()
	f, err := Start(Options{
		Primary:    url,
		Poll:       time.Millisecond,
		MaxBackoff: 5 * time.Millisecond,
		Config:     testCfg,
		NewRouter: func(eng *incremental.Engine) (*shard.Router, error) {
			return shard.FromEngines([]*incremental.Engine{eng}, shard.Config{Serve: serve.Config{BatchWindow: -1}})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close(context.Background()) }) //nolint:errcheck
	return f
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerTailsAcrossCheckpointUntilTrimmed pins what the cursor
// protocol buys: a follower whose cursor the primary still retains keeps
// tailing across primary checkpoints on its first bootstrap, and only a
// follower that fell behind a checkpoint's trim re-bootstraps, through a
// conflict.
func TestFollowerTailsAcrossCheckpointUntilTrimmed(t *testing.T) {
	s := sourceStore(t)
	src := newTestSource(t, s, 1)
	var cur atomic.Pointer[Source]
	cur.Store(src)
	var hold atomic.Int32
	f := startFollower(t, serveSource(t, &cur, &hold).URL)
	followerRules := func() []string { return renderedRules(f.World().Router.Engines()[0]) }

	write(t, s, 1, "Annot_1")
	waitFor(t, "the first record", func() bool { return f.Stats().Applied == 1 })
	epoch := s.Epoch()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	write(t, s, 2, "Annot_5")
	waitFor(t, "the record after the checkpoint", func() bool { return f.Stats().Applied == 2 })
	if st := f.Stats(); st.Bootstraps != 1 || st.Conflicts != 0 || st.Epoch != epoch {
		t.Fatalf("after tailing across a checkpoint: %+v, want still on the first bootstrap", st)
	}
	if got, want := followerRules(), renderedRules(s.Engine()); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower rules:\n%v\nprimary:\n%v", got, want)
	}

	// Fall behind: a record the follower has not applied, then a checkpoint
	// that trims every segment holding it.
	hold.Store(http.StatusServiceUnavailable)
	errs := f.Stats().TailErrors
	waitFor(t, "a paused poll", func() bool { return f.Stats().TailErrors > errs })
	write(t, s, 3, "Annot_9")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hold.Store(0)
	waitFor(t, "the re-bootstrap", func() bool { return f.Stats().Bootstraps == 2 })
	if st := f.Stats(); st.Conflicts == 0 || st.Epoch != s.Epoch() {
		t.Fatalf("after the trim: %+v, want a conflict-driven bootstrap at epoch %d", st, s.Epoch())
	}
	if got, want := followerRules(), renderedRules(s.Engine()); !reflect.DeepEqual(got, want) {
		t.Errorf("follower rules after the re-bootstrap:\n%v\nprimary:\n%v", got, want)
	}
}

// TestFollowerWatermarkResetsAcrossPrimaryRestart restarts the primary under
// a follower that the old run carried to a watermark above the seq the new
// run acknowledges its first write at. A barrier for that write must hold
// until the follower has applied it, not pass on the old run's watermark.
func TestFollowerWatermarkResetsAcrossPrimaryRestart(t *testing.T) {
	dir := t.TempDir()
	var seq atomic.Uint64
	seq.Store(33)
	s1 := openSourceStore(t, dir)
	src1 := newProbedSource(t, s1, seq.Load)
	var cur atomic.Pointer[Source]
	cur.Store(src1)
	var hold atomic.Int32
	f := startFollower(t, serveSource(t, &cur, &hold).URL)

	write(t, s1, 1, "Annot_1")
	wait := func(d time.Duration, s uint64) error {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		return f.WaitSeq(ctx, s)
	}
	if err := wait(10*time.Second, 33); err != nil {
		t.Fatalf("watermark of the first run: %v", err)
	}

	// Restart behind the same URL. The log answers 409 until released, so
	// the follower bootstraps the new run's checkpoint, which does not hold
	// the new run's write, and cannot tail to it.
	hold.Store(http.StatusConflict)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openSourceStore(t, dir)
	src2 := newProbedSource(t, s2, seq.Load)
	seq.Store(0)
	cur.Store(src2)
	write(t, s2, 2, "Annot_5")
	seq.Store(5)
	waitFor(t, "the new run's bootstrap", func() bool { return f.Stats().RunID == src2.RunID() })
	if err := wait(50*time.Millisecond, 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitSeq(5) before the new run's write is applied = %v (watermark %d), want a deadline", err, f.Seq())
	}

	hold.Store(0)
	if err := wait(10*time.Second, 5); err != nil {
		t.Fatalf("watermark of the new run: %v", err)
	}
	if got, want := renderedRules(f.World().Router.Engines()[0]), renderedRules(s2.Engine()); !reflect.DeepEqual(got, want) {
		t.Errorf("follower rules past the barrier:\n%v\nprimary:\n%v", got, want)
	}
}
