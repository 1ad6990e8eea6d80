package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"annotadb"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire from this build's responses")

// goldenTuples is the fixed dataset behind the golden wire bodies. Value "1"
// is on every tuple, so an anchor query on it has a zero-margin 2×2 table
// for every candidate (the chi-square clamp); the Annot_q family carries
// data-to-annotation and annotation-to-annotation rules; tuples 7–10 stay
// bare until the last write makes {62} => Annot_src:a appear in one step
// (a rule_added, never a promotion).
var goldenTuples = []annotadb.TupleSpec{
	{Values: []string{"1", "28", "85", "99"}, Annotations: []string{"Annot_q:1", "Annot_q:5"}},
	{Values: []string{"1", "28", "85", "12"}, Annotations: []string{"Annot_q:1", "Annot_q:5"}},
	{Values: []string{"1", "28", "85", "40"}, Annotations: []string{"Annot_q:1", "Annot_q:5"}},
	{Values: []string{"1", "28", "85", "41"}, Annotations: []string{"Annot_q:1", "Annot_q:5"}},
	{Values: []string{"1", "28", "85"}, Annotations: []string{"Annot_q:1"}},
	{Values: []string{"1", "28", "41"}},
	{Values: []string{"1", "41", "85"}, Annotations: []string{"Annot_q:5"}},
	{Values: []string{"1", "62", "12"}},
	{Values: []string{"1", "62", "40"}},
	{Values: []string{"1", "62", "99"}},
	{Values: []string{"1", "62", "7"}},
}

// goldenRing is the event ring of the golden servers: smaller than the
// history the writes produce, so a subscription from cursor 1 opens with a
// gap frame.
const goldenRing = 8

var durationField = regexp.MustCompile(`"duration_seconds":[^,}]+`)

// TestGoldenWireBodies pins the exact bytes of every JSON body the serving
// endpoints emit — field order, [] versus null, the kind sort order, the
// chi-square clamp, the event payloads — against files captured before the
// token-form types were unified, on a one-shard and a three-shard server.
// Only duration_seconds (wall time) is blanked. Every write touches a single
// annotation family, so the three-shard event order is deterministic.
func TestGoldenWireBodies(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("n%d", shards), func(t *testing.T) {
			ds := annotadb.NewDataset()
			for _, tu := range goldenTuples {
				if _, err := ds.AddTuple(tu.Values, tu.Annotations); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := annotadb.NewShardedServer(ds, annotadb.Options{MinSupport: 0.3, MinConfidence: 0.7},
				annotadb.ServeOptions{BatchWindow: -1, Shards: shards, Stream: annotadb.StreamOptions{Ring: goldenRing}})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(New(srv, context.Background()))
			defer func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := srv.Close(ctx); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			dir := filepath.Join("testdata", "wire", fmt.Sprintf("n%d", shards))

			get := func(name, path string) {
				t.Helper()
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, dir, name, readBody(t, resp, path))
			}
			post := func(name, path, body string) {
				t.Helper()
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, dir, name, durationField.ReplaceAll(readBody(t, resp, path), []byte(`"duration_seconds":0`)))
			}

			get("rules.json", "/rules")
			get("rules_kind_limit.json", "/rules?kind=annotation-to-annotation&limit=1")
			get("rules_none.json", "/rules?limit=0")
			get("recommend.json", "/recommend?tuple=6")
			get("recommend_empty.json", "/recommend?tuple=9")
			get("correlate.json", "/correlate?anchor=28")
			get("correlate_degenerate.json", "/correlate?anchor=1")
			get("correlate_empty.json", "/correlate?anchor=7")

			post("tuples_ack.json", "/tuples", `{"tuples":[{"values":["77"],"annotations":["Annot_lab:x"]},{"values":["78"]}]}`)
			post("annotations_remove_ack.json", "/annotations", `{"updates":[{"tuple":0,"annotation":"Annot_q:5"}],"remove":true}`)
			post("annotations_add_ack.json", "/annotations", `{"updates":[{"tuple":5,"annotation":"Annot_q:1"},{"tuple":6,"annotation":"Annot_q:1"}]}`)
			post("annotations_family_ack.json", "/annotations", `{"updates":[{"tuple":7,"annotation":"Annot_src:a"},{"tuple":8,"annotation":"Annot_src:a"},{"tuple":9,"annotation":"Annot_src:a"},{"tuple":10,"annotation":"Annot_src:a"}]}`)

			// Everything the ring still holds, behind the gap frame a resume
			// from cursor 1 opens with.
			st := srv.StreamStats()
			frames := sseFrames(t, ts.URL+"/events?from=1", 1+int(st.NextCursor-st.FirstCursor))
			for _, kind := range []string{"event: gap\n", "event: rule_added\n", "event: confidence_changed\n"} {
				if !bytes.Contains(frames, []byte(kind)) {
					t.Errorf("retained event history lacks a %q frame:\n%s", strings.TrimSpace(kind), frames)
				}
			}
			checkGolden(t, dir, "events.sse", frames)
		})
	}
}

func readBody(t *testing.T, resp *http.Response, path string) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// sseFrames reads n whole frames from an event stream and returns their
// bytes as sent.
func sseFrames(t *testing.T, url string, n int) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	for n > 0 && sc.Scan() {
		out.Write(sc.Bytes())
		out.WriteByte('\n')
		if len(sc.Bytes()) == 0 {
			n--
		}
	}
	if n > 0 {
		t.Fatalf("event stream ended %d frames short (%v):\n%s", n, sc.Err(), out.Bytes())
	}
	return out.Bytes()
}

func checkGolden(t *testing.T, dir, name string, got []byte) {
	t.Helper()
	path := filepath.Join(dir, name)
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden bytes\n got: %s\nwant: %s", path, got, want)
	}
}
