// The serving-mode matrix: one seeded history applied to every way a Server
// can be built — in memory and durable (closed and reopened mid-history),
// one shard and three, and a follower tailing the durable one-shard primary
// — must leave every form serving the same rules, recommendations and
// anchor answers, and every form's rule set must equal a full re-mine of
// the relation the history produces.
package annotadb_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"annotadb"
	"annotadb/internal/httpapi"
)

var matrixMining = annotadb.Options{MinSupport: 0.1, MinConfidence: 0.6}

// matrixFamilies are the annotation vocabularies, one per family. The
// generated tuple at position i only ever carries annotations of family
// i%3, so no frequent pattern spans two families: every correlation is
// intra-family (the sharded contract) and the rule set cannot depend on the
// shard count.
var matrixFamilies = [3][]string{
	{"Annot_q:1", "Annot_q:5", "Annot_q:9"},
	{"Annot_src:a", "Annot_src:b"},
	{"Annot_lab:x", "Annot_lab:y"},
}

// matrixValues are the data values of a family's tuples; the first two are
// on nearly every tuple, so data-to-annotation rules exist.
var matrixValues = [3][]string{
	{"28", "85", "99", "12"},
	{"62", "40", "12", "41"},
	{"7", "70", "99", "41"},
}

type matrixOp struct {
	add, remove []annotadb.AnnotationUpdate
	tuples      []annotadb.TupleSpec
}

// matrixModel replays the history in plain maps: the re-mine oracle is a
// fresh Dataset built from its final state, untouched by any server.
type matrixModel struct {
	values [][]string
	annots []map[string]bool
	rng    *rand.Rand
}

func (m *matrixModel) newTuple() annotadb.TupleSpec {
	fam := len(m.values) % 3
	vals := []string{matrixValues[fam][0]}
	for _, v := range matrixValues[fam][1:] {
		if m.rng.Intn(3) > 0 {
			vals = append(vals, v)
		}
	}
	spec := annotadb.TupleSpec{Values: vals}
	set := map[string]bool{}
	// A family's annotations tend to arrive together, so annotation-to-
	// annotation rules exist too.
	together := m.rng.Intn(4) > 0
	for _, a := range matrixFamilies[fam] {
		if together == (m.rng.Intn(5) > 0) {
			spec.Annotations = append(spec.Annotations, a)
			set[a] = true
		}
	}
	m.values = append(m.values, vals)
	m.annots = append(m.annots, set)
	return spec
}

// attached lists the model's current (tuple, annotation) pairs in a
// deterministic order.
func (m *matrixModel) attached() []annotadb.AnnotationUpdate {
	var out []annotadb.AnnotationUpdate
	for i, set := range m.annots {
		for _, fam := range matrixFamilies {
			for _, a := range fam {
				if set[a] {
					out = append(out, annotadb.AnnotationUpdate{Tuple: i, Annotation: a})
				}
			}
		}
	}
	return out
}

func (m *matrixModel) dataset(t *testing.T) *annotadb.Dataset {
	t.Helper()
	ds := annotadb.NewDataset()
	pairs := m.attached()
	for i, vals := range m.values {
		var annots []string
		for ; len(pairs) > 0 && pairs[0].Tuple == i; pairs = pairs[1:] {
			annots = append(annots, pairs[0].Annotation)
		}
		if _, err := ds.AddTuple(vals, annots); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// matrixHistory builds the seed relation and a history of annotation adds,
// removals and tuple appends over it.
func matrixHistory(seed int64, tuples, ops int) (*matrixModel, []annotadb.TupleSpec, []matrixOp) {
	m := &matrixModel{rng: rand.New(rand.NewSource(seed))}
	base := make([]annotadb.TupleSpec, tuples)
	for i := range base {
		base[i] = m.newTuple()
	}
	history := make([]matrixOp, ops)
	for k := range history {
		var op matrixOp
		switch m.rng.Intn(4) {
		case 0:
			for n := 1 + m.rng.Intn(2); n > 0; n-- {
				op.tuples = append(op.tuples, m.newTuple())
			}
		case 1:
			if pairs := m.attached(); len(pairs) > 0 {
				for n := 1 + m.rng.Intn(3); n > 0; n-- {
					u := pairs[m.rng.Intn(len(pairs))]
					op.remove = append(op.remove, u)
					m.annots[u.Tuple][u.Annotation] = false
				}
				break
			}
			fallthrough
		default:
			for n := 1 + m.rng.Intn(3); n > 0; n-- {
				i := m.rng.Intn(len(m.values))
				fam := matrixFamilies[i%3]
				u := annotadb.AnnotationUpdate{Tuple: i, Annotation: fam[m.rng.Intn(len(fam))]}
				op.add = append(op.add, u)
				m.annots[i][u.Annotation] = true
			}
		}
		history[k] = op
	}
	// One appended tuple carries two families, so the append fan-out projects
	// it differently per shard; a single co-occurrence is far below support.
	both := annotadb.TupleSpec{Values: []string{"28", "85"}, Annotations: []string{"Annot_q:1", "Annot_src:a"}}
	m.values = append(m.values, both.Values)
	m.annots = append(m.annots, map[string]bool{"Annot_q:1": true, "Annot_src:a": true})
	return m, base, append(history, matrixOp{tuples: []annotadb.TupleSpec{both}})
}

// matrixForm is one way of serving the history.
type matrixForm struct {
	name   string
	srv    *annotadb.Server
	eng    *annotadb.Engine // the durable handle, for Verify
	shards int
}

func (f *matrixForm) apply(t *testing.T, ops []matrixOp) (last uint64) {
	t.Helper()
	ctx := context.Background()
	for k, op := range ops {
		var rep annotadb.UpdateReport
		var err error
		switch {
		case op.tuples != nil:
			rep, err = f.srv.AddTuples(ctx, op.tuples)
		case op.remove != nil:
			rep, err = f.srv.RemoveAnnotations(ctx, op.remove)
		default:
			rep, err = f.srv.AddAnnotations(ctx, op.add)
		}
		if err != nil {
			t.Fatalf("%s: op %d: %v", f.name, k, err)
		}
		last = rep.Seq
	}
	return last
}

// ghostRemoval leaves a token in the dictionary that no log record carries
// — a rejected append interns its tokens before it fails — and then removes
// it. The removal is journaled and acknowledged as a skip, so a replayer of
// the log (recovery, a follower) meets a removal of a token it never saw.
func (f *matrixForm) ghostRemoval(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	if _, err := f.srv.AddTuples(ctx, []annotadb.TupleSpec{{Values: []string{"28"}, Annotations: []string{"Annot_ghost", ""}}}); err == nil {
		t.Fatalf("%s: an append carrying an empty annotation token was accepted", f.name)
	}
	rep, err := f.srv.RemoveAnnotations(ctx, []annotadb.AnnotationUpdate{{Tuple: 0, Annotation: "Annot_ghost"}})
	if err != nil || rep.Skipped != 1 {
		t.Fatalf("%s: removing the ghost token = %+v, %v; want one skip", f.name, rep, err)
	}
}

// seqFields matches the generation identity inside a read body: the scalar
// restarts with the process and a sharded server adds its vector, so forms
// are compared with both blanked.
var seqFields = regexp.MustCompile(`"seq":\d+(,"seq_vector":\[[0-9,]*\])?`)

// get serves one request through the production handler, no socket.
func (f *matrixForm) get(t *testing.T, path string) (status int, body string) {
	t.Helper()
	rec := httptest.NewRecorder()
	httpapi.New(f.srv, context.Background()).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

func TestServingModeMatrix(t *testing.T) {
	model, base, history := matrixHistory(20160315, 36, 60)
	seedDataset := func() *annotadb.Dataset {
		ds := annotadb.NewDataset()
		for _, spec := range base {
			if _, err := ds.AddTuple(spec.Values, spec.Annotations); err != nil {
				t.Fatal(err)
			}
		}
		return ds
	}
	sopts := func(shards int) annotadb.ServeOptions {
		return annotadb.ServeOptions{BatchWindow: -1, Shards: shards}
	}
	openDurable := func(dir string, shards int, wantRecovered bool) *matrixForm {
		eng, rec, err := annotadb.OpenDurableDataset(seedDataset(), matrixMining,
			annotadb.DurabilityOptions{Dir: dir, Shards: shards, Fsync: "never"})
		if err != nil {
			t.Fatal(err)
		}
		if rec.FromCheckpoint != wantRecovered {
			t.Fatalf("open %s: FromCheckpoint = %v, want %v", dir, rec.FromCheckpoint, wantRecovered)
		}
		srv, err := annotadb.NewServer(eng, sopts(0))
		if err != nil {
			t.Fatal(err)
		}
		return &matrixForm{name: fmt.Sprintf("durable N=%d", shards), srv: srv, eng: eng, shards: shards}
	}

	memEng, err := annotadb.NewEngine(seedDataset(), matrixMining)
	if err != nil {
		t.Fatal(err)
	}
	mem1Srv, err := annotadb.NewServer(memEng, sopts(0))
	if err != nil {
		t.Fatal(err)
	}
	mem3Srv, err := annotadb.NewShardedServer(seedDataset(), matrixMining, sopts(3))
	if err != nil {
		t.Fatal(err)
	}
	mem1 := &matrixForm{name: "in-memory N=1", srv: mem1Srv, shards: 1}
	mem3 := &matrixForm{name: "in-memory N=3", srv: mem3Srv, shards: 3}
	defer closeServer(t, mem1.srv)
	defer closeServer(t, mem3.srv)

	// First half everywhere; the durable forms then close and reopen from
	// their directories, so the second half lands on recovered state.
	dir1, dir3 := t.TempDir(), t.TempDir()
	half := len(history) / 2
	for _, f := range []*matrixForm{mem1, mem3, openDurable(dir1, 1, false), openDurable(dir3, 3, false)} {
		f.apply(t, history[:half])
		if f.eng != nil {
			closeServer(t, f.srv)
		}
	}
	dur1, dur3 := openDurable(dir1, 1, true), openDurable(dir3, 3, true)
	defer closeServer(t, dur1.srv)
	defer closeServer(t, dur3.srv)

	// The follower bootstraps from the reopened primary's checkpoint and
	// tails the second half from its log.
	ts := httptest.NewServer(httpapi.New(dur1.srv, context.Background()))
	defer ts.Close()
	folSrv, err := annotadb.Follow(matrixMining, sopts(0), annotadb.FollowOptions{Primary: ts.URL, Poll: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fol := &matrixForm{name: "follower of durable N=1", srv: folSrv, shards: 1}
	defer closeServer(t, fol.srv)

	// The second half opens with a removal the follower has to replay for a
	// token its dictionary has never held; it reaches the final sequence only
	// by getting past that record.
	for _, f := range []*matrixForm{mem1, mem3, dur3, dur1} {
		f.ghostRemoval(t)
		last := f.apply(t, history[half:])
		if f == dur1 {
			waitFollowerSeq(t, fol.srv, last)
		}
	}

	forms := []*matrixForm{mem1, mem3, dur1, dur3, fol}

	// Exactness: every form's rules equal a from-scratch mine of the
	// relation the history produced, and each durable shard's maintained
	// state equals a re-mine of its own projection.
	final := model.dataset(t)
	oracle, err := annotadb.Mine(final, matrixMining)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[annotadb.RuleKind]int{}
	for _, r := range oracle {
		kinds[r.Kind]++
	}
	if kinds[annotadb.DataToAnnotation] == 0 || kinds[annotadb.AnnotationToAnnotation] == 0 {
		t.Fatalf("the history mines %v: the matrix needs both rule kinds to be worth anything", kinds)
	}
	// A rule's LHS renders in dictionary order, and the oracle's dictionary
	// was interned from the final state, not along the history.
	asSets := func(rs []annotadb.Rule) []string {
		sorted := make([]annotadb.Rule, len(rs))
		for i, r := range rs {
			r.LHS = append([]string{}, r.LHS...)
			sort.Strings(r.LHS)
			sorted[i] = r
		}
		return ruleKeys(sorted)
	}
	for _, f := range forms {
		if got, want := asSets(f.srv.Rules()), asSets(oracle); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rules differ from a full re-mine:\ngot  %v\nwant %v", f.name, got, want)
		}
		if f.eng != nil {
			if err := f.eng.Verify(); err != nil {
				t.Errorf("%s: %v", f.name, err)
			}
		}
	}

	// One order and one wire shape: with the generation identity blanked,
	// every read body is the same whatever the form. The one-shard forms
	// carry no vector, and the follower — at its primary's generation — is
	// byte-identical to it, sequence included.
	paths := []string{"/rules", "/rules?kind=annotation-to-annotation&limit=3"}
	for i := 0; i < final.Len(); i++ {
		paths = append(paths, fmt.Sprintf("/recommend?tuple=%d", i))
	}
	for fam := range matrixFamilies {
		for _, tok := range append(append([]string{}, matrixFamilies[fam]...), matrixValues[fam]...) {
			paths = append(paths, "/correlate?anchor="+url.QueryEscape(tok), "/correlate?k=2&min_lift=1.2&anchor="+url.QueryEscape(tok))
		}
	}
	paths = append(paths, "/correlate?anchor=never-seen", "/correlate?anchor=Annot_ghost", fmt.Sprintf("/recommend?tuple=%d", final.Len()))
	for _, path := range paths {
		wantStatus, want := mem1.get(t, path)
		_, primaryRaw := dur1.get(t, path)
		for _, f := range forms[1:] {
			status, raw := f.get(t, path)
			if status != wantStatus || seqFields.ReplaceAllString(raw, `"seq":0`) != seqFields.ReplaceAllString(want, `"seq":0`) {
				t.Errorf("%s: GET %s = %d %s\n%s: %d %s", f.name, path, status, raw, mem1.name, wantStatus, want)
			}
			if hasVector := strings.Contains(raw, `"seq_vector"`); hasVector != (f.shards > 1 && status == http.StatusOK && !strings.HasPrefix(path, "/rules")) {
				t.Errorf("%s: GET %s: seq_vector present = %v with %d shards", f.name, path, hasVector, f.shards)
			}
			if f == fol && raw != primaryRaw {
				t.Errorf("GET %s: follower body differs from its primary's at the same generation:\nfollower %s\nprimary  %s", path, raw, primaryRaw)
			}
		}
	}

	// The facade-level shape of the same facts.
	incoming := annotadb.TupleSpec{Values: []string{"28", "85", "never-seen"}, Annotations: []string{"Annot_q:1", "Annot_unknown"}}
	wantIncoming, err := mem1.srv.RecommendForTuple(incoming)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantIncoming) == 0 {
		t.Error("the insert trigger recommends nothing for a typical q-family tuple")
	}
	want := mem1.srv.Stats()
	for _, f := range forms {
		st := f.srv.Stats()
		if st.Tuples != want.Tuples || st.Attachments != want.Attachments || st.DistinctAnnotations != want.DistinctAnnotations || st.RuleCount != len(oracle) {
			t.Errorf("%s: stats tuples/attachments/distinct/rules = %d/%d/%d/%d, want %d/%d/%d/%d", f.name,
				st.Tuples, st.Attachments, st.DistinctAnnotations, st.RuleCount, want.Tuples, want.Attachments, want.DistinctAnnotations, len(oracle))
		}
		sharded := f.shards > 1
		if f.srv.Sharded() != sharded || f.srv.Shards() != f.shards {
			t.Errorf("%s: Sharded()=%v Shards()=%d", f.name, f.srv.Sharded(), f.srv.Shards())
		}
		if sharded {
			if st.Shards != f.shards || len(st.SeqVector) != f.shards || len(st.PerShard) != f.shards {
				t.Errorf("%s: stats missing shard sections: %+v", f.name, st)
			}
			if f.srv.Dataset() != nil {
				t.Errorf("%s: sharded server exposed a live Dataset", f.name)
			}
		} else if st.Shards != 0 || st.SeqVector != nil || st.PerShard != nil {
			t.Errorf("%s: one-shard stats carry shard sections: %+v", f.name, st)
		}
		_, rs, err := f.srv.RecommendAt(0)
		if err != nil || len(rs.Shards) != len(st.SeqVector) {
			t.Errorf("%s: RecommendAt ReadSeq = %+v (%v), want a %d-wide vector", f.name, rs, err, len(st.SeqVector))
		}
		got, err := f.srv.RecommendForTuple(incoming)
		if err != nil || !reflect.DeepEqual(got, wantIncoming) {
			t.Errorf("%s: incoming-tuple recommendations diverge (%v):\ngot  %v\nwant %v", f.name, err, got, wantIncoming)
		}
	}
	if d := dur1.srv.Durability(); d == nil || d.PerShard != nil || d.Recovery.Shards != 0 || !d.Recovery.FromCheckpoint {
		t.Errorf("durable N=1: durability = %+v, want the single-store shape, recovered", d)
	}
	if d := dur3.srv.Durability(); d == nil || len(d.PerShard) != 3 || d.Recovery.Shards != 3 || !d.Recovery.FromCheckpoint {
		t.Errorf("durable N=3: durability = %+v, want three shard sections, recovered", d)
	}
}
