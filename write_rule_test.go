package annotadb_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"annotadb"
)

// writeRuleSeed holds data values 28, 85, 99 and 12, raw annotations
// Annot_1 and Annot_2, and the derived label Annot_gen, attached by a
// generalization to every tuple carrying Annot_2.
func writeRuleSeed(t *testing.T) *annotadb.Dataset {
	t.Helper()
	ds := annotadb.NewDataset()
	for i := 0; i < 12; i++ {
		vals := []string{"28", "85"}
		var annots []string
		switch i % 3 {
		case 0:
			annots = []string{"Annot_1", "Annot_2"}
		case 1:
			vals = append(vals, "99")
			annots = []string{"Annot_1"}
		default:
			vals = []string{"12", "85"}
			annots = []string{"Annot_2"}
		}
		if _, err := ds.AddTuple(vals, annots); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := ds.ApplyGeneralizations([]annotadb.Generalization{{Label: "Annot_gen", Sources: []string{"Annot_2"}}})
	if err != nil || rep.Attached == 0 {
		t.Fatalf("generalization = %+v, %v; want Annot_gen attached", rep, err)
	}
	return ds
}

var writeRuleMining = annotadb.Options{MinSupport: 0.2, MinConfidence: 0.5}

// writeRuleOp is one write of the token table through an entry point.
type writeRuleOp struct {
	op, token string
	wantErr   bool
}

// writeRuleTable runs every token kind — an existing raw annotation, an
// existing derived label, a data value and a token never seen — through
// each kind of write. A removal runs first, so the unknown token is still
// unknown; each write of an unknown token uses a fresh one.
var writeRuleTable = []writeRuleOp{
	{"remove", "Annot_1", false},
	{"remove", "Annot_gen", false},
	{"remove", "28", true},
	{"remove", "Annot_unseen_remove", true},
	{"attach", "Annot_1", false},
	{"attach", "Annot_gen", false},
	{"attach", "28", true},
	{"attach", "Annot_unseen_attach", false},
	{"file", "Annot_1", false},
	{"file", "Annot_gen", false},
	{"file", "28", true},
	{"file", "Annot_unseen_file", false},
	{"append", "Annot_1", false},
	{"append", "Annot_gen", false},
	{"append", "28", true},
	{"append", "Annot_unseen_append", false},
}

// writeRuleEntry is one way of writing: the root Engine or a Server.
type writeRuleEntry struct {
	attach, remove func([]annotadb.AnnotationUpdate) error
	file           func(string) error
	append         func([]annotadb.TupleSpec) error
}

func engineEntry(e *annotadb.Engine) writeRuleEntry {
	return writeRuleEntry{
		attach: func(b []annotadb.AnnotationUpdate) error { _, err := e.AddAnnotations(b); return err },
		remove: func(b []annotadb.AnnotationUpdate) error { _, err := e.RemoveAnnotations(b); return err },
		file:   func(s string) error { _, err := e.ApplyUpdateFile(strings.NewReader(s)); return err },
		append: func(b []annotadb.TupleSpec) error { _, err := e.AddTuples(b); return err },
	}
}

func serverEntry(s *annotadb.Server) writeRuleEntry {
	ctx := context.Background()
	return writeRuleEntry{
		attach: func(b []annotadb.AnnotationUpdate) error { _, err := s.AddAnnotations(ctx, b); return err },
		remove: func(b []annotadb.AnnotationUpdate) error { _, err := s.RemoveAnnotations(ctx, b); return err },
		file:   func(text string) error { _, err := s.ApplyUpdateFile(ctx, strings.NewReader(text)); return err },
		append: func(b []annotadb.TupleSpec) error { _, err := s.AddTuples(ctx, b); return err },
	}
}

// run applies the table through w and checks each outcome.
func (w writeRuleEntry) run(t *testing.T, name string) {
	t.Helper()
	for i, row := range writeRuleTable {
		var err error
		switch row.op {
		case "remove":
			err = w.remove([]annotadb.AnnotationUpdate{{Tuple: 0, Annotation: row.token}})
		case "attach":
			err = w.attach([]annotadb.AnnotationUpdate{{Tuple: 1, Annotation: row.token}})
		case "file":
			err = w.file(fmt.Sprintf("3:%s\n", row.token))
		case "append":
			err = w.append([]annotadb.TupleSpec{{Values: []string{"85", "99"}, Annotations: []string{row.token}}})
		}
		if (err != nil) != row.wantErr {
			t.Errorf("%s: row %d: %s %q: err = %v, want error %v", name, i, row.op, row.token, err, row.wantErr)
		}
	}
}

// TestWriteRuleInEveryWritePath pins the one interning rule on every write
// entry point: an existing annotation, raw or derived, resolves to itself;
// a data value is refused as an annotation; an unknown token is interned as
// a raw annotation on a write and refused on a live removal. The durable
// forms are then closed and reopened, so replay resolves the same logged
// tokens to the same state.
func TestWriteRuleInEveryWritePath(t *testing.T) {
	eng, err := annotadb.NewEngine(writeRuleSeed(t), writeRuleMining)
	if err != nil {
		t.Fatal(err)
	}
	engineEntry(eng).run(t, "engine")
	if err := eng.Verify(); err != nil {
		t.Errorf("engine: %v", err)
	}

	sopts := annotadb.ServeOptions{BatchWindow: -1}
	for _, shards := range []int{1, 2} {
		sopts.Shards = shards
		srv, err := annotadb.NewShardedServer(writeRuleSeed(t), writeRuleMining, sopts)
		if err != nil {
			t.Fatal(err)
		}
		serverEntry(srv).run(t, fmt.Sprintf("server N=%d", shards))
		closeServer(t, srv)
	}

	for _, shards := range []int{1, 2} {
		name := fmt.Sprintf("durable N=%d", shards)
		dir := t.TempDir()
		open := func() (*annotadb.Engine, *annotadb.Server) {
			eng, _, err := annotadb.OpenDurableDataset(writeRuleSeed(t), writeRuleMining,
				annotadb.DurabilityOptions{Dir: dir, Shards: shards, Fsync: "never"})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := annotadb.NewServer(eng, annotadb.ServeOptions{BatchWindow: -1})
			if err != nil {
				t.Fatal(err)
			}
			return eng, srv
		}
		eng, srv := open()
		serverEntry(srv).run(t, name)
		want, wantStats := ruleKeys(srv.Rules()), srv.Stats()
		closeServer(t, srv)

		eng, srv = open()
		if got := ruleKeys(srv.Rules()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rules after reopen differ:\ngot  %v\nwant %v", name, got, want)
		}
		if st := srv.Stats(); st.Tuples != wantStats.Tuples || st.Attachments != wantStats.Attachments {
			t.Errorf("%s: reopened with %d tuples, %d attachments; want %d, %d", name,
				st.Tuples, st.Attachments, wantStats.Tuples, wantStats.Attachments)
		}
		if err := eng.Verify(); err != nil {
			t.Errorf("%s: after reopen: %v", name, err)
		}
		closeServer(t, srv)
	}
}
