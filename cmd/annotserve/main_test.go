package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"annotadb"
)

const testDataset = `# fixture: {28,85} => Annot_1 strong, Annot_5 => Annot_1 moderate
28 85 99 Annot_1 Annot_5
28 85 12 Annot_1 Annot_5
28 85 40 Annot_1 Annot_5
28 85 41 Annot_1
28 85 Annot_1
28 41
41 85 Annot_5
62 12
62 40
99 12
`

func writeDataset(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dataset.txt")
	if err := os.WriteFile(path, []byte(testDataset), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestAPI(t *testing.T) (*httptest.Server, *annotadb.Server) {
	t.Helper()
	ds, err := annotadb.LoadDataset(writeDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := annotadb.NewEngine(ds, annotadb.Options{MinSupport: 0.3, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := annotadb.NewServer(eng, annotadb.ServeOptions{BatchWindow: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(srv, context.Background()))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return ts, srv
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestRulesEndpoint(t *testing.T) {
	ts, _ := newTestAPI(t)
	var body struct {
		Count int        `json:"count"`
		Rules []ruleJSON `json:"rules"`
	}
	if code := getJSON(t, ts.URL+"/rules", &body); code != http.StatusOK {
		t.Fatalf("GET /rules = %d", code)
	}
	if body.Count == 0 || len(body.Rules) != body.Count {
		t.Fatalf("GET /rules returned count=%d rules=%d", body.Count, len(body.Rules))
	}
	found := false
	for _, r := range body.Rules {
		if r.RHS == "Annot_1" && len(r.LHS) == 2 && r.LHS[0] == "28" && r.LHS[1] == "85" {
			found = true
			if r.Kind != "data-to-annotation" {
				t.Errorf("{28,85}=>Annot_1 kind = %q", r.Kind)
			}
			if r.N != 10 {
				t.Errorf("{28,85}=>Annot_1 N = %d, want 10", r.N)
			}
		}
	}
	if !found {
		t.Errorf("expected rule {28,85}=>Annot_1 missing from %+v", body.Rules)
	}

	// kind filter and limit
	if code := getJSON(t, ts.URL+"/rules?kind=annotation-to-annotation", &body); code != http.StatusOK {
		t.Fatalf("GET /rules?kind = %d", code)
	}
	for _, r := range body.Rules {
		if r.Kind != "annotation-to-annotation" {
			t.Errorf("kind filter leaked %q", r.Kind)
		}
	}
	if code := getJSON(t, ts.URL+"/rules?limit=1", &body); code != http.StatusOK || body.Count > 1 {
		t.Errorf("GET /rules?limit=1 = %d, count=%d", code, body.Count)
	}
	if code := getJSON(t, ts.URL+"/rules?kind=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("GET /rules?kind=bogus = %d, want 400", code)
	}
}

func TestRecommendEndpoint(t *testing.T) {
	ts, _ := newTestAPI(t)
	// Tuple 5 is {28,41} un-annotated; tuple 4 {28,85}+Annot_1 is complete
	// for the strong rule. Tuple 6 {41,85}+Annot_5 should draw Annot_1 via
	// Annot_5=>Annot_1 if that rule is valid at 0.3/0.7 (4/5 conf = 0.8).
	var body struct {
		Tuple           int                  `json:"tuple"`
		Seq             uint64               `json:"seq"`
		Count           int                  `json:"count"`
		Recommendations []recommendationJSON `json:"recommendations"`
	}
	if code := getJSON(t, ts.URL+"/recommend?tuple=6", &body); code != http.StatusOK {
		t.Fatalf("GET /recommend = %d", code)
	}
	if body.Tuple != 6 {
		t.Errorf("tuple echoed as %d", body.Tuple)
	}
	if body.Seq == 0 {
		t.Error("/recommend response missing the snapshot seq it was served from")
	}
	foundA1 := false
	for _, rec := range body.Recommendations {
		if rec.Annotation == "Annot_1" {
			foundA1 = true
			if rec.Rule.RHS != "Annot_1" {
				t.Errorf("supporting rule RHS = %q", rec.Rule.RHS)
			}
		}
	}
	if !foundA1 {
		t.Errorf("tuple 6 did not draw Annot_1: %+v", body.Recommendations)
	}

	if code := getJSON(t, ts.URL+"/recommend", nil); code != http.StatusBadRequest {
		t.Errorf("GET /recommend without tuple = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/recommend?tuple=banana", nil); code != http.StatusBadRequest {
		t.Errorf("GET /recommend?tuple=banana = %d, want 400", code)
	}

	// A negative index is malformed input (no tuple can ever live there):
	// 400 invalid_argument. An in-range-shaped index that is simply absent
	// is a miss: 404 not_found.
	var errBody struct {
		Error errorJSON `json:"error"`
	}
	for _, q := range []string{"-1", "-999"} {
		errBody.Error = errorJSON{}
		if code := getJSON(t, ts.URL+"/recommend?tuple="+q, &errBody); code != http.StatusBadRequest {
			t.Errorf("GET /recommend?tuple=%s = %d, want 400", q, code)
		}
		if errBody.Error.Code != codeInvalidArgument {
			t.Errorf("tuple=%s error code = %q, want %q", q, errBody.Error.Code, codeInvalidArgument)
		}
	}
	errBody.Error = errorJSON{}
	if code := getJSON(t, ts.URL+"/recommend?tuple=999", &errBody); code != http.StatusNotFound {
		t.Errorf("GET /recommend?tuple=999 = %d, want 404", code)
	}
	if errBody.Error.Code != codeNotFound {
		t.Errorf("tuple=999 error code = %q, want %q", errBody.Error.Code, codeNotFound)
	}
}

func TestAnnotationsEndpointJSONAndText(t *testing.T) {
	ts, srv := newTestAPI(t)
	var rep reportJSON
	code := postJSON(t, ts.URL+"/annotations",
		`{"updates":[{"tuple":5,"annotation":"Annot_1"},{"tuple":5,"annotation":"Annot_1"}]}`, &rep)
	if code != http.StatusOK {
		t.Fatalf("POST /annotations = %d", code)
	}
	if rep.Applied != 1 || rep.Skipped != 1 {
		t.Errorf("applied/skipped = %d/%d, want 1/1 (within-batch duplicate)", rep.Applied, rep.Skipped)
	}

	// Figure 14 text format, 1-based indexes: annotate the 8th tuple.
	resp, err := http.Post(ts.URL+"/annotations", "text/plain", strings.NewReader("8:Annot_5\n\n# comment\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Applied != 1 {
		t.Fatalf("text POST = %d, applied = %d", resp.StatusCode, rep.Applied)
	}

	// Removal via remove flag.
	code = postJSON(t, ts.URL+"/annotations",
		`{"remove":true,"updates":[{"tuple":5,"annotation":"Annot_1"}]}`, &rep)
	if code != http.StatusOK || rep.Applied != 1 {
		t.Fatalf("remove POST = %d, applied = %d", code, rep.Applied)
	}

	// Bad requests.
	if code := postJSON(t, ts.URL+"/annotations", `{"updates":[{"tuple":999,"annotation":"Annot_1"}]}`, nil); code != http.StatusBadRequest {
		t.Errorf("out-of-range POST = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/annotations", `not json`, nil); code != http.StatusBadRequest {
		t.Errorf("malformed POST = %d, want 400", code)
	}

	if got := srv.Stats().Requests; got < 3 {
		t.Errorf("server saw %d write requests, want >= 3", got)
	}
}

func TestTuplesEndpoint(t *testing.T) {
	ts, srv := newTestAPI(t)
	var rep reportJSON
	code := postJSON(t, ts.URL+"/tuples",
		`{"tuples":[{"values":["28","85"],"annotations":["Annot_1"]},{"values":["62"]}]}`, &rep)
	if code != http.StatusOK {
		t.Fatalf("POST /tuples = %d", code)
	}
	if rep.Applied != 2 {
		t.Errorf("applied = %d, want 2", rep.Applied)
	}
	if got := srv.Stats().Tuples; got != 12 {
		t.Errorf("tuples after append = %d, want 12", got)
	}
}

func TestStatsAndHealth(t *testing.T) {
	ts, _ := newTestAPI(t)
	var st map[string]any
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	for _, key := range []string{"snapshot_seq", "tuples", "rule_count", "reads"} {
		if _, ok := st[key]; !ok {
			t.Errorf("stats missing %q: %v", key, st)
		}
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("GET /healthz = %d", code)
	}
	if code := getJSON(t, ts.URL+"/nosuch", nil); code != http.StatusNotFound {
		t.Errorf("GET /nosuch = %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/rules", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /rules = %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentReadsDuringWrites is the acceptance check: GET /rules and
// GET /recommend keep answering, with consistent payloads, while POST
// /annotations batches are being applied.
func TestConcurrentReadsDuringWrites(t *testing.T) {
	ts, srv := newTestAPI(t)
	client := ts.Client()

	const (
		readers        = 6
		readsPerReader = 40
		writerBatches  = 25
	)
	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerBatches; i++ {
			tuple := 5 + i%5 // rotate over un/lightly-annotated tuples
			body := fmt.Sprintf(`{"updates":[{"tuple":%d,"annotation":"Annot_1"}]}`, tuple)
			resp, err := client.Post(ts.URL+"/annotations", "application/json", strings.NewReader(body))
			if err != nil {
				errCh <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("POST /annotations = %d", resp.StatusCode)
				return
			}
			body = fmt.Sprintf(`{"remove":true,"updates":[{"tuple":%d,"annotation":"Annot_1"}]}`, tuple)
			resp, err = client.Post(ts.URL+"/annotations", "application/json", strings.NewReader(body))
			if err != nil {
				errCh <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				var rules struct {
					Count int        `json:"count"`
					Rules []ruleJSON `json:"rules"`
				}
				resp, err := client.Get(ts.URL + "/rules")
				if err != nil {
					errCh <- err
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&rules); err != nil {
					resp.Body.Close()
					errCh <- fmt.Errorf("reader %d: decode rules: %w", r, err)
					return
				}
				resp.Body.Close()
				// Payload consistency: every rule shares one N and meets
				// the serving thresholds.
				for _, rl := range rules.Rules {
					if rl.N != 10 {
						errCh <- fmt.Errorf("reader %d: rule N = %d, want 10", r, rl.N)
						return
					}
					if rl.Confidence < 0.7-1e-9 || rl.Support < 0.3-1e-9 {
						errCh <- fmt.Errorf("reader %d: sub-threshold rule served: %+v", r, rl)
						return
					}
				}
				resp, err = client.Get(ts.URL + fmt.Sprintf("/recommend?tuple=%d", i%10))
				if err != nil {
					errCh <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					errCh <- fmt.Errorf("reader %d: GET /recommend = %d", r, resp.StatusCode)
					return
				}
				resp.Body.Close()
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := srv.Stats()
	if st.Requests != 2*writerBatches {
		t.Errorf("write requests = %d, want %d", st.Requests, 2*writerBatches)
	}
	t.Logf("concurrent e2e: %d write requests -> %d batches, %d snapshot reads",
		st.Requests, st.Batches, st.Reads)
}

func TestWriteAfterShutdownIs503(t *testing.T) {
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
	ts := httptest.NewServer(newHandler(srv, context.Background()))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	code := postJSON(t, ts.URL+"/annotations", `{"updates":[{"tuple":0,"annotation":"Annot_1"}]}`, nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("write after close = %d, want 503", code)
	}
	// Reads still serve the final snapshot.
	if code := getJSON(t, ts.URL+"/rules", nil); code != http.StatusOK {
		t.Errorf("read after close = %d, want 200", code)
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	ts, _ := newTestAPI(t)
	huge := `{"tuples":[{"values":["` + strings.Repeat("x", 17<<20) + `"]}]}`
	resp, err := http.Post(ts.URL+"/tuples", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST /tuples = %d, want 413", resp.StatusCode)
	}
}

// syncBuffer is a goroutine-safe writer for capturing run() output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunStartsAndShutsDownGracefully(t *testing.T) {
	url, out, cancel, done := startRun(t, []string{"-data", writeDataset(t), "-addr", "127.0.0.1:0", "-min-support", "0.3", "-min-confidence", "0.7"})
	if code := getJSON(t, url+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", code)
	}
	stopRun(t, cancel, done)
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing shutdown message in output: %q", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	out := &syncBuffer{}
	if err := run(context.Background(), []string{"-h"}, out); err != nil {
		t.Errorf("run -h returned %v, want nil (usage is not an error)", err)
	}
	if !strings.Contains(out.String(), "-data") {
		t.Errorf("run -h did not print usage: %q", out.String())
	}
	if err := run(context.Background(), nil, out); err == nil {
		t.Error("run without -data succeeded")
	}
	if err := run(context.Background(), []string{"-data", "/nonexistent/ds.txt"}, out); err == nil {
		t.Error("run with missing dataset succeeded")
	}
	path := writeDataset(t)
	if err := run(context.Background(), []string{"-data", path, "-algorithm", "bogus"}, out); err == nil {
		t.Error("run with bogus algorithm succeeded")
	}
}

// startRun launches run() with args and waits for the listener announcement,
// returning the base URL, the output buffer, a cancel func, and run's error
// channel.
func startRun(t *testing.T, args []string) (string, *syncBuffer, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, out) }()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := out.String()
		if i := strings.Index(s, "http://"); i >= 0 {
			url := strings.TrimSpace(s[i : strings.IndexByte(s[i:], '\n')+i])
			return url, out, cancel, done
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before announcing: %v (output %q)", err, out.String())
		default:
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never announced its address; output: %q", out.String())
	return "", nil, nil, nil
}

func stopRun(t *testing.T, cancel context.CancelFunc, done chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not shut down")
	}
}

// TestDurableRestartRecoversWithoutRemine boots a durable server, feeds it
// updates, restarts it from the data dir alone (no -data flag), and checks
// the rule state survived and the recovery came from the checkpoint.
func TestDurableRestartRecoversWithoutRemine(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "store")
	common := []string{"-addr", "127.0.0.1:0", "-min-support", "0.3", "-min-confidence", "0.7", "-data-dir", dataDir}

	url, out, cancel, done := startRun(t, append([]string{"-data", writeDataset(t)}, common...))
	if !strings.Contains(out.String(), "bootstrapped") {
		t.Errorf("first boot output missing bootstrap notice: %q", out.String())
	}
	var before struct {
		Rules []ruleJSON `json:"rules"`
	}
	if code := getJSON(t, url+"/rules", &before); code != http.StatusOK {
		t.Fatalf("GET /rules = %d", code)
	}
	if code := postJSON(t, url+"/annotations", `{"updates":[{"tuple":7,"annotation":"Annot_1"},{"tuple":8,"annotation":"Annot_1"}]}`, nil); code != http.StatusOK {
		t.Fatalf("POST /annotations = %d", code)
	}
	var after struct {
		Rules []ruleJSON `json:"rules"`
	}
	if code := getJSON(t, url+"/rules", &after); code != http.StatusOK {
		t.Fatalf("GET /rules = %d", code)
	}
	stopRun(t, cancel, done)

	// Restart from the data dir alone: no -data, no mine.
	url2, out2, cancel2, done2 := startRun(t, common)
	defer stopRun(t, cancel2, done2)
	if !strings.Contains(out2.String(), "recovered") {
		t.Errorf("restart output missing recovery notice: %q", out2.String())
	}
	var restarted struct {
		Rules []ruleJSON `json:"rules"`
	}
	if code := getJSON(t, url2+"/rules", &restarted); code != http.StatusOK {
		t.Fatalf("GET /rules after restart = %d", code)
	}
	if fmt.Sprint(restarted.Rules) != fmt.Sprint(after.Rules) {
		t.Errorf("rules after restart:\n%v\nwant:\n%v", restarted.Rules, after.Rules)
	}
	var stats struct {
		Durability struct {
			Recovered       bool   `json:"recovered"`
			RecordsAppended uint64 `json:"records_appended"`
		} `json:"durability"`
	}
	if code := getJSON(t, url2+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	if !stats.Durability.Recovered {
		t.Error("stats durability section does not report checkpoint recovery")
	}
	// The restarted server must keep accepting durable writes.
	if code := postJSON(t, url2+"/annotations", `{"updates":[{"tuple":5,"annotation":"Annot_5"}]}`, nil); code != http.StatusOK {
		t.Fatalf("POST /annotations after restart = %d", code)
	}
}

// TestStructuredErrorSchema pins the {"error":{"code","message"}} error
// contract across endpoints and status classes.
func TestStructuredErrorSchema(t *testing.T) {
	ts, srv := newTestAPI(t)
	type errBody struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
		code   string
	}{
		{
			name:   "recommend missing param",
			do:     func() (*http.Response, error) { return http.Get(ts.URL + "/recommend") },
			status: http.StatusBadRequest,
			code:   "invalid_argument",
		},
		{
			name:   "recommend unknown tuple",
			do:     func() (*http.Response, error) { return http.Get(ts.URL + "/recommend?tuple=99999") },
			status: http.StatusNotFound,
			code:   "not_found",
		},
		{
			name: "annotations malformed JSON",
			do: func() (*http.Response, error) {
				return http.Post(ts.URL+"/annotations", "application/json", strings.NewReader("{"))
			},
			status: http.StatusBadRequest,
			code:   "invalid_argument",
		},
		{
			name: "annotations out-of-range tuple",
			do: func() (*http.Response, error) {
				return http.Post(ts.URL+"/annotations", "application/json",
					strings.NewReader(`{"updates":[{"tuple":99999,"annotation":"Annot_1"}]}`))
			},
			status: http.StatusBadRequest,
			code:   "invalid_argument",
		},
		{
			// A misspelled key must not decode to the zero value and attach
			// the annotation to tuple 0.
			name: "annotations unknown key",
			do: func() (*http.Response, error) {
				return http.Post(ts.URL+"/annotations", "application/json",
					strings.NewReader(`{"updates":[{"tupel":7,"annotation":"Annot_9"}]}`))
			},
			status: http.StatusBadRequest,
			code:   "invalid_argument",
		},
		{
			name: "tuples unknown key",
			do: func() (*http.Response, error) {
				return http.Post(ts.URL+"/tuples", "application/json",
					strings.NewReader(`{"tuples":[{"value":["28"],"annotations":["Annot_9"]}]}`))
			},
			status: http.StatusBadRequest,
			code:   "invalid_argument",
		},
		{
			name: "oversized body",
			do: func() (*http.Response, error) {
				return http.Post(ts.URL+"/tuples", "application/json",
					strings.NewReader(`{"tuples":[{"values":["`+strings.Repeat("x", 17<<20)+`"]}]}`))
			},
			status: http.StatusRequestEntityTooLarge,
			code:   "payload_too_large",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			var body errBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not the structured schema: %v", err)
			}
			if body.Error.Code != tc.code {
				t.Errorf("error.code = %q, want %q", body.Error.Code, tc.code)
			}
			if body.Error.Message == "" {
				t.Error("error.message is empty")
			}
		})
	}
	if n := srv.Dataset().AnnotationFrequency("Annot_9"); n != 0 {
		t.Errorf("rejected writes attached Annot_9 to %d tuples", n)
	}
}

// TestRunRefusesEmptyDataDirWithoutData pins the guard against mistyped
// -data-dir: with no -data and no checkpoint, run must error instead of
// quietly serving an empty dataset.
func TestRunRefusesEmptyDataDirWithoutData(t *testing.T) {
	out := &syncBuffer{}
	err := run(context.Background(), []string{"-data-dir", filepath.Join(t.TempDir(), "nope"), "-addr", "127.0.0.1:0"}, out)
	if err == nil || !strings.Contains(err.Error(), "holds no checkpoint") {
		t.Fatalf("run with fresh -data-dir and no -data = %v, want no-checkpoint error", err)
	}
}

// shardedDataset uses family-namespaced annotation tokens, the sharded
// contract's shape: every correlation stays within one family prefix.
const shardedDataset = `28 85 99 Annot_q:1 Annot_q:5
28 85 12 Annot_q:1 Annot_q:5
28 85 40 Annot_q:1 Annot_q:5
28 85 41 Annot_q:1
28 85 Annot_q:1
28 41
41 85 Annot_q:5
62 12 Annot_src:a
62 40 Annot_src:a
99 12
`

func newShardedAPI(t *testing.T, shards int) (*httptest.Server, *annotadb.Server) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dataset.txt")
	if err := os.WriteFile(path, []byte(shardedDataset), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := annotadb.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := annotadb.NewShardedServer(ds, annotadb.Options{MinSupport: 0.3, MinConfidence: 0.7},
		annotadb.ServeOptions{BatchWindow: -1, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(srv, context.Background()))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return ts, srv
}

// TestWriteValidationErrorsModeNeutral pins that a rejected write reads the
// same whatever the shard count: the same bad tuple index and unknown-token
// removal yield the same status, code and message on a one-shard and a
// three-shard server, and the message names no internal package of the
// write path.
func TestWriteValidationErrorsModeNeutral(t *testing.T) {
	type errBody struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	requests := []struct {
		name, path, body string
	}{
		{"out-of-range add", "/annotations", `{"updates":[{"tuple":1,"annotation":"Annot_q:1"},{"tuple":99999,"annotation":"Annot_q:1"}]}`},
		{"negative index", "/annotations", `{"updates":[{"tuple":-1,"annotation":"Annot_q:1"}]}`},
		{"unknown removal", "/annotations", `{"remove":true,"updates":[{"tuple":0,"annotation":"Annot_never:seen"}]}`},
		{"removal of a data value", "/annotations", `{"remove":true,"updates":[{"tuple":0,"annotation":"28"}]}`},
		{"empty tuple token", "/tuples", `{"tuples":[{"values":["28"]},{"values":[""]}]}`},
	}
	one, _ := newShardedAPI(t, 1)
	three, _ := newShardedAPI(t, 3)
	for _, rq := range requests {
		t.Run(rq.name, func(t *testing.T) {
			var got [2]errBody
			for i, ts := range []*httptest.Server{one, three} {
				if status := postJSON(t, ts.URL+rq.path, rq.body, &got[i]); status != http.StatusBadRequest {
					t.Fatalf("server %d: status = %d, want 400", i, status)
				}
				if got[i].Error.Code != "invalid_argument" {
					t.Errorf("server %d: code = %q, want invalid_argument", i, got[i].Error.Code)
				}
			}
			if got[0].Error.Message != got[1].Error.Message {
				t.Errorf("message differs by shard count:\n1 shard:  %s\n3 shards: %s", got[0].Error.Message, got[1].Error.Message)
			}
			for _, pkg := range []string{"shard:", "serve:"} {
				if strings.Contains(got[0].Error.Message, pkg) {
					t.Errorf("message names an internal package: %s", got[0].Error.Message)
				}
			}
		})
	}
}

// TestShardedEndpoints exercises the HTTP surface of a sharded server: the
// merged /rules, /recommend with its seq_vector, write endpoints routing by
// family, and the per-shard /stats section.
func TestShardedEndpoints(t *testing.T) {
	const shards = 3
	ts, _ := newShardedAPI(t, shards)

	var rulesBody struct {
		Count int        `json:"count"`
		Rules []ruleJSON `json:"rules"`
	}
	if code := getJSON(t, ts.URL+"/rules", &rulesBody); code != http.StatusOK {
		t.Fatalf("GET /rules = %d", code)
	}
	if rulesBody.Count == 0 {
		t.Fatal("sharded server served no rules")
	}

	var recBody struct {
		Seq       uint64   `json:"seq"`
		SeqVector []uint64 `json:"seq_vector"`
		Count     int      `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/recommend?tuple=5", &recBody); code != http.StatusOK {
		t.Fatalf("GET /recommend = %d", code)
	}
	if len(recBody.SeqVector) != shards {
		t.Errorf("recommend seq_vector has %d entries, want %d", len(recBody.SeqVector), shards)
	}

	// Writes route by family and refresh the merged state.
	var rep reportJSON
	if code := postJSON(t, ts.URL+"/annotations", `{"updates":[{"tuple":5,"annotation":"Annot_q:1"},{"tuple":9,"annotation":"Annot_src:a"}]}`, &rep); code != http.StatusOK {
		t.Fatalf("POST /annotations = %d", code)
	}
	if rep.Applied != 2 {
		t.Errorf("sharded annotation batch applied %d, want 2", rep.Applied)
	}
	if code := postJSON(t, ts.URL+"/tuples", `{"tuples":[{"values":["28","85"],"annotations":["Annot_q:1","Annot_src:a"]}]}`, &rep); code != http.StatusOK {
		t.Fatalf("POST /tuples = %d", code)
	}
	if rep.Applied != 1 {
		t.Errorf("sharded tuple batch applied %d, want 1", rep.Applied)
	}

	var stats struct {
		Tuples    int              `json:"tuples"`
		Shards    int              `json:"shards"`
		SeqVector []uint64         `json:"seq_vector"`
		PerShard  []map[string]any `json:"per_shard"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	if stats.Shards != shards || len(stats.SeqVector) != shards || len(stats.PerShard) != shards {
		t.Errorf("sharded stats sections wrong: %+v", stats)
	}
	if stats.Tuples != 11 {
		t.Errorf("merged tuples = %d, want 11", stats.Tuples)
	}
	attachSum := 0.0
	for _, ps := range stats.PerShard {
		attachSum += ps["attachments"].(float64)
		for _, key := range []string{"shard", "seq", "staleness", "rule_count", "requests"} {
			if _, ok := ps[key]; !ok {
				t.Errorf("per-shard stats missing %q: %v", key, ps)
			}
		}
	}
	// 11 base attachments + 2 posted + 2 on the appended tuple.
	if attachSum != 15 {
		t.Errorf("per-shard attachments sum to %v, want 15", attachSum)
	}
}

// TestRunServesSharded boots the full binary path with -shards and checks
// the announcement and a health probe.
func TestRunServesSharded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dataset.txt")
	if err := os.WriteFile(path, []byte(shardedDataset), 0o644); err != nil {
		t.Fatal(err)
	}
	url, out, cancel, done := startRun(t, []string{"-data", path, "-addr", "127.0.0.1:0", "-min-support", "0.3", "-min-confidence", "0.7", "-shards", "2"})
	if code := getJSON(t, url+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", code)
	}
	var stats struct {
		Shards int `json:"shards"`
	}
	if code := getJSON(t, url+"/stats", &stats); code != http.StatusOK || stats.Shards != 2 {
		t.Fatalf("GET /stats = %d shards=%d, want 200/2", code, stats.Shards)
	}
	stopRun(t, cancel, done)
	if !strings.Contains(out.String(), "2 family shards") {
		t.Errorf("startup line missing shard count: %q", out.String())
	}
}
