package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"annotadb"
)

// --- /healthz latch paths -------------------------------------------------

// TestHealthzDegradedOnLatchedFailures pins the probe's wire contract for
// both one-way failure latches: a shard router that latched
// ErrReplicasDiverged after a partial append fan-out, and a durable store
// that latched a WAL fsync failure. Both must flip /healthz from 200 ok to
// 503 degraded with the latched reason; a healthy server stays 200.
func TestHealthzDegradedOnLatchedFailures(t *testing.T) {
	t.Parallel()
	ds, err := annotadb.LoadDataset(writeDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := annotadb.NewEngine(ds, annotadb.Options{MinSupport: 0.3, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := annotadb.NewServer(eng, annotadb.ServeOptions{BatchWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	probe := func(t *testing.T, health func() error) (int, map[string]string) {
		t.Helper()
		ts := httptest.NewServer(newHandlerHealth(srv, context.Background(), health))
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	t.Run("healthy", func(t *testing.T) {
		code, body := probe(t, srv.Health)
		if code != http.StatusOK || body["status"] != "ok" {
			t.Errorf("healthy probe = %d %v, want 200 ok", code, body)
		}
	})
	t.Run("router latched divergence", func(t *testing.T) {
		latched := fmt.Errorf("shard: replicas diverged after a partial append fan-out; restart to repair: shard 1: write wal.log: no space left on device")
		code, body := probe(t, func() error { return latched })
		if code != http.StatusServiceUnavailable {
			t.Errorf("latched probe status = %d, want 503", code)
		}
		if body["status"] != "degraded" {
			t.Errorf("latched probe status field = %q, want degraded", body["status"])
		}
		if !strings.Contains(body["reason"], "replicas diverged") {
			t.Errorf("latched probe reason = %q, want the divergence cause", body["reason"])
		}
	})
	t.Run("wal store latched fsync failure", func(t *testing.T) {
		latched := fmt.Errorf("annotadb: durable store failed (restart to recover): sync wal.log: input/output error")
		code, body := probe(t, func() error { return latched })
		if code != http.StatusServiceUnavailable || body["status"] != "degraded" {
			t.Errorf("latched probe = %d %v, want 503 degraded", code, body)
		}
		if !strings.Contains(body["reason"], "input/output error") {
			t.Errorf("latched probe reason = %q, want the fsync cause", body["reason"])
		}
	})
	t.Run("journal checkpoint pipeline latched", func(t *testing.T) {
		latched := fmt.Errorf("annotadb: serve: journal checkpoint pipeline failing: write checkpoint.db: no space left on device")
		code, body := probe(t, func() error { return latched })
		if code != http.StatusServiceUnavailable || body["status"] != "degraded" {
			t.Errorf("latched probe = %d %v, want 503 degraded", code, body)
		}
		if !strings.Contains(body["reason"], "journal checkpoint pipeline failing") {
			t.Errorf("latched probe reason = %q, want the checkpoint cause", body["reason"])
		}
	})
}

// TestOverloadedWriteMapsTo429 pins the backpressure wire contract: a write
// shed by the admission queue answers 429 with a Retry-After hint and the
// structured-error body schema, distinct from the 503 availability and 500
// journal paths.
func TestOverloadedWriteMapsTo429(t *testing.T) {
	t.Parallel()
	rec := httptest.NewRecorder()
	writeUpdateError(rec, fmt.Errorf("annotadb: %w", annotadb.ErrOverloaded))

	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	// The hint is decimal seconds derived from the admission wait (the
	// package-level default is one second); pin the parse contract rather
	// than a constant so the derivation can stay proportional.
	if got := rec.Header().Get("Retry-After"); got != "" {
		secs, err := strconv.ParseFloat(got, 64)
		if err != nil || secs <= 0 {
			t.Errorf("Retry-After = %q, want a positive decimal-seconds hint", got)
		}
	} else {
		t.Error("Retry-After missing on 429")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("429 body is not the structured-error schema: %v\n%s", err, rec.Body.Bytes())
	}
	if body.Error.Code != "overloaded" {
		t.Errorf("error code = %q, want overloaded", body.Error.Code)
	}
	if !strings.Contains(body.Error.Message, "overloaded") {
		t.Errorf("error message = %q, want the shed cause", body.Error.Message)
	}
}

// --- /events SSE ----------------------------------------------------------

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	id    string
	event string
	data  eventJSON
}

// readSSE consumes frames from an open /events response until want frames
// arrived or the deadline passed.
func readSSE(t *testing.T, body io.Reader, want int, deadline time.Duration) []sseFrame {
	t.Helper()
	type result struct {
		frames []sseFrame
		err    error
	}
	done := make(chan result, 1)
	go func() {
		var frames []sseFrame
		var cur sseFrame
		sc := bufio.NewScanner(body)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if cur.event != "" {
					frames = append(frames, cur)
					if len(frames) >= want {
						done <- result{frames: frames}
						return
					}
				}
				cur = sseFrame{}
			case strings.HasPrefix(line, "id: "):
				cur.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
					done <- result{err: fmt.Errorf("bad data line %q: %w", line, err)}
					return
				}
			}
		}
		done <- result{frames: frames, err: sc.Err()}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("SSE read: %v", res.err)
		}
		if len(res.frames) < want {
			t.Fatalf("SSE stream ended after %d frames, want %d", len(res.frames), want)
		}
		return res.frames
	case <-time.After(deadline):
		t.Fatalf("timed out waiting for %d SSE frames", want)
		return nil
	}
}

// openSSE starts one /events request and returns the response; the caller
// cancels ctx (or closes the body) to end the stream.
func openSSE(t *testing.T, ctx context.Context, url string, header map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// churn promotes Annot_1 => Annot_5: attaching Annot_5 to tuple 3 lifts its
// confidence from 3/5 to 4/5 across the 0.7 threshold.
func churn(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/annotations", "application/json",
		strings.NewReader(`{"updates":[{"tuple":3,"annotation":"Annot_5"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /annotations = %d: %s", resp.StatusCode, raw)
	}
}

// TestEventsSSEStreamsChurnAndResumes drives the full SSE loop: a live
// subscriber sees the promotion caused by an annotation batch, a second
// client resuming via Last-Event-ID replays from its cursor, and ?from=1
// replays the retained history — all three observing identical events.
func TestEventsSSEStreamsChurnAndResumes(t *testing.T) {
	t.Parallel()
	ts, _ := newTestAPI(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	live := openSSE(t, ctx, ts.URL+"/events", nil)
	// Give the live stream a moment to register before the churn happens,
	// then cause it. (A live subscriber positioned after the churn would
	// simply see nothing.)
	time.Sleep(50 * time.Millisecond)
	churn(t, ts)

	frames := readSSE(t, live.Body, 1, 10*time.Second)
	first := frames[0]
	if first.id == "" || first.data.Cursor == 0 {
		t.Fatalf("event carries no cursor id: %+v", first)
	}
	if first.data.Seq == 0 {
		t.Errorf("event carries no generation seq: %+v", first)
	}
	if first.event != string(first.data.Kind) {
		t.Errorf("SSE event field %q != data kind %q", first.event, first.data.Kind)
	}

	// Full replay from cursor 1: the history must include the promotion of
	// Annot_1 => Annot_5 on the valid tier.
	replay := openSSE(t, ctx, ts.URL+"/events?from=1", nil)
	all := readSSE(t, replay.Body, 1, 10*time.Second)
	if all[0].data.Cursor != 1 {
		t.Errorf("replay started at cursor %d, want 1", all[0].data.Cursor)
	}

	// Resume after the first event via Last-Event-ID: the next frame must
	// carry the following cursor.
	resume := openSSE(t, ctx, ts.URL+"/events", map[string]string{"Last-Event-ID": "1"})
	next := readSSE(t, resume.Body, 1, 10*time.Second)
	if next[0].data.Cursor != 2 {
		t.Errorf("Last-Event-ID resume delivered cursor %d, want 2", next[0].data.Cursor)
	}

	// The promotion is in the stream, on the valid tier, with both sides
	// of the confidence change.
	promoted := openSSE(t, ctx, ts.URL+"/events?from=1&kind=rule_promoted", nil)
	pf := readSSE(t, promoted.Body, 1, 10*time.Second)
	ev := pf[0].data
	if ev.Kind != "rule_promoted" || ev.Tier != "valid" || ev.RHS != "Annot_5" {
		t.Errorf("promotion frame = %+v", ev)
	}
	if ev.Old == nil || ev.New == nil || ev.New.Confidence <= ev.Old.Confidence {
		t.Errorf("promotion counts missing or not rising: old %+v new %+v", ev.Old, ev.New)
	}

	// Family filter: everything in the fixture is family Annot_5/Annot_1
	// (no ":" namespace), so an unrelated family stays silent while a
	// matching one delivers.
	silentCtx, silentCancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer silentCancel()
	silent := openSSE(t, silentCtx, ts.URL+"/events?from=1&family=Annot_nope", nil)
	if raw, _ := io.ReadAll(silent.Body); strings.Contains(string(raw), "data:") {
		t.Errorf("unmatched family filter still delivered events: %q", raw)
	}
}

// TestEventsRejectsBadArguments pins the 400/404 surface of /events.
func TestEventsRejectsBadArguments(t *testing.T) {
	t.Parallel()
	ts, _ := newTestAPI(t)
	for _, url := range []string{
		ts.URL + "/events?kind=bogus",
		ts.URL + "/events?tier=bogus",
		ts.URL + "/events?from=0",
		ts.URL + "/events?from=x",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", url, resp.StatusCode)
		}
	}
	// An unparseable Last-Event-ID must be IGNORED (live tail), not 400:
	// per the SSE spec EventSource cannot clear the header, so rejecting it
	// would wedge the browser's reconnect loop forever.
	leiCtx, leiCancel := context.WithCancel(context.Background())
	defer leiCancel()
	req, _ := http.NewRequestWithContext(leiCtx, http.MethodGet, ts.URL+"/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-cursor")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("bad Last-Event-ID = %d, want 200 (garbage ids are ignored, stream tails live)", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("bad Last-Event-ID Content-Type = %q, want text/event-stream", ct)
	}
}

// TestEventsDisabledReturnsNotFound covers the -events=false surface.
func TestEventsDisabledReturnsNotFound(t *testing.T) {
	t.Parallel()
	ds, err := annotadb.LoadDataset(writeDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := annotadb.NewEngine(ds, annotadb.Options{MinSupport: 0.3, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := annotadb.NewServer(eng, annotadb.ServeOptions{Stream: annotadb.StreamOptions{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(newHandler(srv, context.Background()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled /events = %d, want 404", resp.StatusCode)
	}
}

// TestStatsReportsStreamAndEventLog checks the new /stats surfaces: the
// stream section (cursors, volume, subscribers) and — on a durable server —
// the durability.events section with segment rotation/retention counters.
func TestStatsReportsStreamAndEventLog(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "data")
	eng, _, err := annotadb.OpenDurable(writeDataset(t), annotadb.Options{MinSupport: 0.3, MinConfidence: 0.7},
		annotadb.DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := annotadb.NewServer(eng, annotadb.ServeOptions{
		BatchWindow: -1,
		// Tiny segments so the rotation counters move in-test.
		Stream: annotadb.StreamOptions{SegmentBytes: 128, RetainSegments: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(srv, context.Background()))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	for i := 0; i < 6; i++ {
		churn(t, ts)
		undo, err := http.Post(ts.URL+"/annotations", "application/json",
			strings.NewReader(`{"updates":[{"tuple":3,"annotation":"Annot_5"}],"remove":true}`))
		if err != nil {
			t.Fatal(err)
		}
		undo.Body.Close()
	}
	var body struct {
		Stream struct {
			EventsPublished uint64 `json:"events_published"`
			NextCursor      uint64 `json:"next_cursor"`
			FirstCursor     uint64 `json:"first_cursor"`
		} `json:"stream"`
		Durability struct {
			Events struct {
				Segments     int    `json:"segments"`
				Appends      uint64 `json:"appends"`
				Rotations    uint64 `json:"rotations"`
				RotatedBytes int64  `json:"rotated_bytes"`
			} `json:"events"`
		} `json:"durability"`
	}
	if code := getJSON(t, ts.URL+"/stats", &body); code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	if body.Stream.EventsPublished == 0 || body.Stream.NextCursor <= body.Stream.FirstCursor {
		t.Errorf("stream section did not move: %+v", body.Stream)
	}
	if body.Durability.Events.Appends == 0 || body.Durability.Events.Segments == 0 {
		t.Errorf("durability.events section did not move: %+v", body.Durability.Events)
	}
	if body.Durability.Events.Rotations == 0 || body.Durability.Events.RotatedBytes == 0 {
		t.Errorf("tiny segments never rotated: %+v", body.Durability.Events)
	}
}

// TestGracefulShutdownClosesOpenEventStreams pins the shutdown ordering:
// an SSE connection held open across SIGTERM must be closed by the server
// (streamCtx cancels before the in-flight drain), or graceful Shutdown
// would wait on it until the drain timeout.
func TestGracefulShutdownClosesOpenEventStreams(t *testing.T) {
	url, _, cancel, done := startRun(t, []string{
		"-data", writeDataset(t), "-addr", "127.0.0.1:0",
		"-min-support", "0.3", "-min-confidence", "0.7",
	})
	ctx, streamCancel := context.WithCancel(context.Background())
	defer streamCancel()
	resp := openSSE(t, ctx, url+"/events", nil)

	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		// The open stream must end on its own: the server closes it.
		io.Copy(io.Discard, resp.Body)
	}()
	stopRun(t, cancel, done) // fails the test if shutdown exceeds 10s
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("event stream still open after graceful shutdown")
	}
}
