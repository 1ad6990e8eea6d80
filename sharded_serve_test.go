package annotadb

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// shardedFixture builds a dataset in the sharded contract's shape:
// family-namespaced annotation tokens, every correlation intra-family.
func shardedFixture(t *testing.T) *Dataset {
	t.Helper()
	ds := NewDataset()
	rows := []struct {
		values []string
		annots []string
	}{
		{[]string{"28", "85", "99"}, []string{"Annot_q:1", "Annot_q:5"}},
		{[]string{"28", "85", "12"}, []string{"Annot_q:1", "Annot_q:5"}},
		{[]string{"28", "85", "40"}, []string{"Annot_q:1", "Annot_q:5"}},
		{[]string{"28", "85", "41"}, []string{"Annot_q:1"}},
		{[]string{"28", "85"}, []string{"Annot_q:1"}},
		{[]string{"28", "41"}, nil},
		{[]string{"41", "85"}, []string{"Annot_q:5"}},
		{[]string{"62", "12"}, []string{"Annot_src:a"}},
		{[]string{"62", "40"}, []string{"Annot_src:a"}},
		{[]string{"99", "12"}, nil},
	}
	for _, r := range rows {
		if _, err := ds.AddTuple(r.values, r.annots); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func testOpts() Options { return Options{MinSupport: 0.3, MinConfidence: 0.7} }

func closeServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Errorf("close: %v", err)
	}
}

// ruleKeys flattens public rules for order-insensitive comparison.
func ruleKeys(rs []Rule) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestNewServerShardsOption pins that ServeOptions.Shards on a plain engine
// shards the serving state too (the engine is then disconnected).
func TestNewServerShardsOption(t *testing.T) {
	eng, err := NewEngine(shardedFixture(t), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(eng, ServeOptions{BatchWindow: -1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, srv)
	if !srv.Sharded() || srv.Shards() != 2 {
		t.Fatalf("Sharded()=%v Shards()=%d, want true/2", srv.Sharded(), srv.Shards())
	}
	if len(srv.Rules()) == 0 {
		t.Fatal("sharded server mined no rules")
	}
}

// TestShardsZeroOrOneServesUnsharded pins the documented "0 or 1 serves
// unsharded" for every constructor: the one-shard form reports scalar
// sequences and no per-shard sections, whichever entry point built it.
func TestShardsZeroOrOneServesUnsharded(t *testing.T) {
	for _, shards := range []int{0, 1} {
		eng, err := NewEngine(shardedFixture(t), testOpts())
		if err != nil {
			t.Fatal(err)
		}
		viaEngine, err := NewServer(eng, ServeOptions{BatchWindow: -1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer closeServer(t, viaEngine)
		viaSharded, err := NewShardedServer(shardedFixture(t), testOpts(), ServeOptions{BatchWindow: -1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer closeServer(t, viaSharded)

		for name, srv := range map[string]*Server{"NewServer": viaEngine, "NewShardedServer": viaSharded} {
			if srv.Sharded() || srv.Shards() != 1 {
				t.Errorf("%s Shards=%d: Sharded()=%v Shards()=%d, want false/1", name, shards, srv.Sharded(), srv.Shards())
			}
			if srv.Dataset() == nil {
				t.Errorf("%s Shards=%d: unsharded server exposes no Dataset", name, shards)
			}
			rep, err := srv.AddAnnotations(context.Background(), []AnnotationUpdate{{Tuple: 5, Annotation: "Annot_q:1"}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Seq == 0 || rep.SeqVector != nil {
				t.Errorf("%s Shards=%d: write ack Seq=%d SeqVector=%v, want a scalar and no vector", name, shards, rep.Seq, rep.SeqVector)
			}
			_, rs, err := srv.RecommendAt(0)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Shards != nil || rs.Seq != rep.Seq {
				t.Errorf("%s Shards=%d: ReadSeq = %+v, want scalar %d and no vector", name, shards, rs, rep.Seq)
			}
			if _, rs, err := srv.Correlate("Annot_q:1", 0, 0); err != nil || rs.Shards != nil {
				t.Errorf("%s Shards=%d: Correlate ReadSeq = %+v (err %v), want no vector", name, shards, rs, err)
			}
			if st := srv.Stats(); st.Shards != 0 || st.SeqVector != nil || st.PerShard != nil || st.SnapshotSeq != rep.Seq {
				t.Errorf("%s Shards=%d: stats carry shard sections: %+v", name, shards, st)
			}
		}
	}
}

// TestShardedDurableRoundTrip exercises the sharded durable facade: seed,
// write, close, reopen, and require the same merged rules plus the sharded
// durability surfaces — and that direct Engine calls on the sharded handle
// are refused.
func TestShardedDurableRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cluster")
	dataPath := filepath.Join(t.TempDir(), "dataset.txt")
	ds := shardedFixture(t)
	if err := ds.Save(dataPath); err != nil {
		t.Fatal(err)
	}
	dopts := DurabilityOptions{Dir: dir, Shards: 2}

	eng, rec, err := OpenDurable(dataPath, testOpts(), dopts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.FromCheckpoint || rec.Shards != 2 {
		t.Errorf("first open: FromCheckpoint=%v Shards=%d, want false/2", rec.FromCheckpoint, rec.Shards)
	}
	if !HasDurableState(dir) {
		t.Error("HasDurableState false after sharded bootstrap")
	}

	// Direct Engine calls on a sharded handle are refused or empty.
	if _, err := eng.AddAnnotations([]AnnotationUpdate{{Tuple: 0, Annotation: "Annot_q:1"}}); !errors.Is(err, ErrShardedEngine) {
		t.Errorf("direct sharded Engine write: err = %v, want ErrShardedEngine", err)
	}
	if got := eng.Rules(); got != nil {
		t.Errorf("direct sharded Engine read returned %d rules, want nil", len(got))
	}
	if got := eng.RecommendAll(RecommendOptions{}); got != nil {
		t.Errorf("direct sharded Engine RecommendAll returned %d recommendations, want nil", len(got))
	}
	if err := eng.Verify(); err != nil {
		t.Errorf("sharded Engine.Verify: %v", err)
	}

	srv, err := NewServer(eng, ServeOptions{BatchWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := srv.AddAnnotations(ctx, []AnnotationUpdate{
		{Tuple: 5, Annotation: "Annot_q:1"},
		{Tuple: 9, Annotation: "Annot_src:a"},
	}); err != nil {
		t.Fatal(err)
	}
	want := ruleKeys(srv.Rules())
	d := srv.Durability()
	if d == nil || len(d.PerShard) != 2 {
		t.Fatalf("sharded durability stats missing per-shard section: %+v", d)
	}
	if d.RecordsAppended == 0 {
		t.Error("no records appended across shard logs")
	}
	closeServer(t, srv)

	// Reopen: every shard restores from its final checkpoint.
	eng2, rec2, err := OpenDurable("", testOpts(), dopts)
	if err != nil {
		t.Fatal(err)
	}
	if !rec2.FromCheckpoint || rec2.Records != 0 {
		t.Errorf("reopen: FromCheckpoint=%v Records=%d, want true/0", rec2.FromCheckpoint, rec2.Records)
	}
	srv2, err := NewServer(eng2, ServeOptions{BatchWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, srv2)
	if got := ruleKeys(srv2.Rules()); !reflect.DeepEqual(got, want) {
		t.Errorf("rules diverge across sharded reopen:\ngot  %v\nwant %v", got, want)
	}

	// A single-store open of a cluster directory must be refused.
	if _, _, err := OpenDurable("", testOpts(), DurabilityOptions{Dir: dir}); err == nil {
		t.Error("unsharded open of a sharded cluster directory not refused")
	}
}

// TestShardedOpenRefusesUnshardedDir pins the converse guard: a directory
// holding an unsharded store's checkpoint must not be silently
// re-bootstrapped as a sharded cluster (that would orphan every previously
// acknowledged write).
func TestShardedOpenRefusesUnshardedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	dataPath := filepath.Join(t.TempDir(), "dataset.txt")
	if err := shardedFixture(t).Save(dataPath); err != nil {
		t.Fatal(err)
	}
	eng, _, err := OpenDurable(dataPath, testOpts(), DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(eng, ServeOptions{BatchWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddAnnotations(context.Background(), []AnnotationUpdate{{Tuple: 5, Annotation: "Annot_q:1"}}); err != nil {
		t.Fatal(err)
	}
	closeServer(t, srv)

	_, _, err = OpenDurable(dataPath, testOpts(), DurabilityOptions{Dir: dir, Shards: 4})
	if err == nil {
		t.Fatal("sharded open silently bootstrapped over an unsharded store")
	}
	if !strings.Contains(err.Error(), "unsharded store") {
		t.Errorf("unexpected refusal message: %v", err)
	}
}

// TestNewServerRefusesShardingDurableUnshardedEngine pins the guard against
// serving a durable unsharded engine through in-memory shards: writes would
// be acknowledged without ever reaching the engine's WAL.
func TestNewServerRefusesShardingDurableUnshardedEngine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	dataPath := filepath.Join(t.TempDir(), "dataset.txt")
	if err := shardedFixture(t).Save(dataPath); err != nil {
		t.Fatal(err)
	}
	eng, _, err := OpenDurable(dataPath, testOpts(), DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(eng, ServeOptions{Shards: 4}); err == nil || !strings.Contains(err.Error(), "DurabilityOptions.Shards") {
		t.Fatalf("sharding a durable unsharded engine: err = %v, want refusal", err)
	}
	// The engine remains usable unsharded.
	srv, err := NewServer(eng, ServeOptions{BatchWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	closeServer(t, srv)
}
