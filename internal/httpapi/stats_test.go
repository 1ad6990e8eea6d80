package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"annotadb"
)

// statsPinned are the /stats leaves a fixed, sequential write history
// determines exactly, wherever they sit in the tree (top level, per shard,
// stream, durability), plus a follower's constant replication role.
// Everything else is wall time, an on-disk size or a process identity and
// is pinned by its JSON type only.
var statsPinned = map[string]bool{
	"tuples":               true,
	"rule_count":           true,
	"attachments":          true,
	"distinct_annotations": true,
	"requests":             true,
	"batches":              true,
	"shards":               true,
	"seq_vector":           true,
	"records_appended":     true,
	"events_published":     true,
	"role":                 true,
}

// statsWrites is the write history every primary in TestStatsShape takes,
// one request at a time: an append with a new family, a removal, an add
// that raises confidences and a new family's rule.
var statsWrites = []struct{ path, body string }{
	{"/tuples", `{"tuples":[{"values":["77"],"annotations":["Annot_lab:x"]},{"values":["78"]}]}`},
	{"/annotations", `{"updates":[{"tuple":0,"annotation":"Annot_q:5"}],"remove":true}`},
	{"/annotations", `{"updates":[{"tuple":5,"annotation":"Annot_q:1"},{"tuple":6,"annotation":"Annot_q:1"}]}`},
	{"/annotations", `{"updates":[{"tuple":7,"annotation":"Annot_src:a"},{"tuple":8,"annotation":"Annot_src:a"},{"tuple":9,"annotation":"Annot_src:a"},{"tuple":10,"annotation":"Annot_src:a"}]}`},
}

// TestStatsShape pins GET /stats on every kind of server — in memory with
// the anomaly detector, in memory without a stream, three in-memory shards,
// durable with one and three shards, and a follower of the durable
// one-shard primary — after the same write history: every key path with
// its JSON type, and the values of the leaves in statsPinned. The files
// under testdata/stats are rewritten with -update-golden.
func TestStatsShape(t *testing.T) {
	mining := annotadb.Options{MinSupport: 0.3, MinConfidence: 0.7}
	seed := func() *annotadb.Dataset {
		ds := annotadb.NewDataset()
		for _, tu := range goldenTuples {
			if _, err := ds.AddTuple(tu.Values, tu.Annotations); err != nil {
				t.Fatal(err)
			}
		}
		return ds
	}
	closeSrv := func(srv *annotadb.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	}
	inMemory := func(sopts annotadb.ServeOptions) *annotadb.Server {
		sopts.BatchWindow = -1
		srv, err := annotadb.NewShardedServer(seed(), mining, sopts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeSrv(srv) })
		return srv
	}
	durable := func(shards int) *annotadb.Server {
		eng, _, err := annotadb.OpenDurableDataset(seed(), mining,
			annotadb.DurabilityOptions{Dir: t.TempDir(), Shards: shards, Fsync: "never"})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := annotadb.NewServer(eng, annotadb.ServeOptions{BatchWindow: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeSrv(srv) })
		return srv
	}

	durable1 := durable(1)
	primary := httptest.NewServer(New(durable1, context.Background()))
	t.Cleanup(primary.Close)
	follower, err := annotadb.Follow(mining, annotadb.ServeOptions{BatchWindow: -1}, annotadb.FollowOptions{
		Primary: primary.URL, Poll: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeSrv(follower) })

	servers := []struct {
		name string
		srv  *annotadb.Server
	}{
		// A detector window no test outlives, so no anomaly event lands in
		// the counted stream.
		{"mem1_anomaly", inMemory(annotadb.ServeOptions{Correlate: annotadb.CorrelateOptions{Anomalies: true, AnomalyWindow: time.Hour}})},
		{"mem1_nostream", inMemory(annotadb.ServeOptions{Stream: annotadb.StreamOptions{Disabled: true}})},
		{"mem3", inMemory(annotadb.ServeOptions{Shards: 3})},
		{"durable1", durable1},
		{"durable3", durable(3)},
	}
	var lastSeq uint64
	for _, s := range servers {
		h := New(s.srv, context.Background())
		for _, w := range statsWrites {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, w.path, strings.NewReader(w.body))
			req.Header.Set("Content-Type", "application/json")
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: POST %s = %d: %s", s.name, w.path, rec.Code, rec.Body)
			}
			var ack struct {
				Seq uint64 `json:"seq"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatal(err)
			}
			if s.srv == durable1 {
				lastSeq = ack.Seq
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := follower.WaitSeq(ctx, lastSeq); err != nil {
		t.Fatalf("follower never reached seq %d: %v", lastSeq, err)
	}
	servers = append(servers, struct {
		name string
		srv  *annotadb.Server
	}{"follower_durable1", follower})

	for _, s := range servers {
		t.Run(s.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			New(s.srv, context.Background()).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET /stats = %d: %s", rec.Code, rec.Body)
			}
			checkGolden(t, filepath.Join("testdata", "stats"), s.name+".txt", statsShape(t, rec.Body.Bytes()))
		})
	}
}

// statsShape renders a /stats body as its sorted key tree ("path type",
// array elements under "path[]") followed by the sorted pinned values
// ("path value", array elements under their index).
func statsShape(t *testing.T, body []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var root any
	if err := dec.Decode(&root); err != nil {
		t.Fatalf("decode /stats: %v\n%s", err, body)
	}
	types := map[string]bool{}
	var values []string
	var walk func(v any, shape, at, key string)
	walk = func(v any, shape, at, key string) {
		if shape != "" {
			types[shape+" "+jsonType(v)] = true
		}
		if statsPinned[key] {
			enc, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			values = append(values, at+" "+string(enc))
		}
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				walk(e, joinKey(shape, k), joinKey(at, k), k)
			}
		case []any:
			for i, e := range x {
				walk(e, shape+"[]", fmt.Sprintf("%s[%d]", at, i), "")
			}
		}
	}
	walk(root, "", "", "")
	keys := make([]string, 0, len(types))
	for k := range types {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sort.Strings(values)
	var out bytes.Buffer
	out.WriteString("# key tree\n")
	for _, k := range keys {
		out.WriteString(k + "\n")
	}
	out.WriteString("# pinned values\n")
	for _, v := range values {
		out.WriteString(v + "\n")
	}
	return out.Bytes()
}

func joinKey(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

func jsonType(v any) string {
	switch v.(type) {
	case map[string]any:
		return "object"
	case []any:
		return "array"
	case json.Number:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case nil:
		return "null"
	}
	return fmt.Sprintf("%T", v)
}
