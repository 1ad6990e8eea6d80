package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"annotadb/internal/apriori"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// checkpointFixture mines the 10-tuple fixture world and packages the full
// result as a checkpoint, exercising every section with real content.
func checkpointFixture(t *testing.T) *Checkpoint {
	t.Helper()
	rel := relation.FromTokens(
		[][]string{
			{"28", "85", "99"},
			{"28", "85", "12"},
			{"28", "85", "40"},
			{"28", "85", "41"},
			{"28", "85"},
			{"28", "41"},
			{"41", "85"},
			{"62", "12"},
			{"62", "40"},
			{"99", "12"},
		},
		[][]string{
			{"Annot_1", "Annot_5"},
			{"Annot_1", "Annot_5"},
			{"Annot_1", "Annot_5"},
			{"Annot_1"},
			{"Annot_1"},
			nil,
			{"Annot_5"},
			nil,
			nil,
			nil,
		},
	)
	res, err := mining.Mine(rel, mining.Config{MinSupport: 0.3, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return &Checkpoint{
		Relation:      rel,
		Valid:         res.Rules,
		Candidates:    res.Candidates,
		DataPatterns:  res.DataPatterns,
		AnnotPatterns: res.AnnotPatterns,
		Counters:      []int64{1, 0, 2, 3, 0, 0, 4, 0, 5},
	}
}

func tuplesAsTokens(t *testing.T, rel relation.Source) [][2][]string {
	t.Helper()
	dict := rel.Dictionary()
	var out [][2][]string
	rel.Each(func(i int, tu relation.Tuple) bool {
		out = append(out, [2][]string{dict.Tokens(tu.Data), dict.Tokens(tu.Annots)})
		return true
	})
	return out
}

func assertCheckpointsEqual(t *testing.T, got, want *Checkpoint) {
	t.Helper()
	if diff := rules.Diff(got.Valid, want.Valid, want.Relation.Dictionary()); len(diff) != 0 {
		t.Errorf("valid rules differ: %v", diff)
	}
	if diff := rules.Diff(got.Candidates, want.Candidates, want.Relation.Dictionary()); len(diff) != 0 {
		t.Errorf("candidate rules differ: %v", diff)
	}
	if !got.DataPatterns.Equal(want.DataPatterns) || got.DataPatterns.Total() != want.DataPatterns.Total() {
		t.Error("data catalogs differ")
	}
	if !got.AnnotPatterns.Equal(want.AnnotPatterns) || got.AnnotPatterns.Total() != want.AnnotPatterns.Total() {
		t.Error("annotation catalogs differ")
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("counters = %v, want %v", got.Counters, want.Counters)
	}
	if g, w := tuplesAsTokens(t, got.Relation), tuplesAsTokens(t, want.Relation); !reflect.DeepEqual(g, w) {
		t.Errorf("relations differ:\ngot  %v\nwant %v", g, w)
	}
	if err := got.Relation.(*relation.Relation).CheckInvariants(); err != nil {
		t.Errorf("restored relation invariants: %v", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := checkpointFixture(t)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertCheckpointsEqual(t, got, want)
	// The restored dictionary must reproduce the exact item codes: every
	// token maps to the same item in both dictionaries.
	wd, gd := want.Relation.Dictionary(), got.Relation.Dictionary()
	if wd.Len() != gd.Len() {
		t.Fatalf("dictionary size %d, want %d", gd.Len(), wd.Len())
	}
	for _, it := range wd.DataItems() {
		tok, _ := wd.TokenOK(it)
		if gi, ok := gd.Lookup(tok); !ok || gi != it {
			t.Errorf("token %q = item %v in restored dictionary, want %v", tok, gi, it)
		}
	}
	for _, it := range wd.AnnotationItems() {
		tok, _ := wd.TokenOK(it)
		if gi, ok := gd.Lookup(tok); !ok || gi != it {
			t.Errorf("token %q = item %v in restored dictionary, want %v", tok, gi, it)
		}
	}
}

func TestCheckpointEmptyRelationRoundTrip(t *testing.T) {
	want := &Checkpoint{
		Relation:      relation.New(),
		Valid:         rules.NewSet(),
		Candidates:    rules.NewSet(),
		DataPatterns:  apriori.NewCatalog(0),
		AnnotPatterns: apriori.NewCatalog(0),
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Relation.Len() != 0 || got.Valid.Len() != 0 || got.Candidates.Len() != 0 {
		t.Errorf("empty checkpoint round-tripped non-empty: %d tuples, %d rules, %d candidates",
			got.Relation.Len(), got.Valid.Len(), got.Candidates.Len())
	}
	if len(got.Counters) != 0 {
		t.Errorf("counters = %v, want empty", got.Counters)
	}
}

// TestCheckpointFromPinnedView pins the background-checkpoint contract: a
// checkpoint serialized from an immutable relation view round-trips to the
// same state even though the live relation mutated (and grew its shared
// dictionary) mid-serialization.
func TestCheckpointFromPinnedView(t *testing.T) {
	want := checkpointFixture(t)
	rel := want.Relation.(*relation.Relation)
	pinned := rel.View()
	wantTokens := tuplesAsTokens(t, pinned)

	// Mutate the live relation after pinning, as the serving writer would
	// while a background checkpoint is in flight.
	rel.Append(relation.MustTuple(rel.Dictionary(), []string{"新77"}, []string{"Annot_9"}))

	ck := *want
	ck.Relation = pinned
	ck.Epoch = 3
	ck.CoveredBytes = 12345
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, &ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || got.CoveredBytes != 12345 {
		t.Errorf("epoch/covered = %d/%d, want 3/12345", got.Epoch, got.CoveredBytes)
	}
	if g := tuplesAsTokens(t, got.Relation); !reflect.DeepEqual(g, wantTokens) {
		t.Errorf("view checkpoint restored wrong tuples:\ngot  %v\nwant %v", g, wantTokens)
	}
	if err := got.Relation.(*relation.Relation).CheckInvariants(); err != nil {
		t.Errorf("restored relation invariants: %v", err)
	}
}

func TestCheckpointRejectsTrailingGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, checkpointFixture(t)); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("garbage after the CRC trailer")
	_, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	var ce *ErrCheckpointCorrupt
	if !errors.As(err, &ce) {
		t.Fatalf("trailing garbage: got %v, want ErrCheckpointCorrupt", err)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, checkpointFixture(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	cases := map[string][]byte{
		"flipped byte":  append([]byte{}, raw...),
		"truncated":     append([]byte{}, raw[:len(raw)/2]...),
		"empty":         {},
		"foreign magic": append([]byte("NOTACKPT"), raw[8:]...),
	}
	cases["flipped byte"][len(raw)/2] ^= 0x40
	for name, data := range cases {
		_, err := ReadCheckpoint(bytes.NewReader(data))
		var ce *ErrCheckpointCorrupt
		if !errors.As(err, &ce) {
			t.Errorf("%s: got %v, want ErrCheckpointCorrupt", name, err)
		}
	}
}

func TestWriteCheckpointFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.db")
	first := checkpointFixture(t)
	if err := WriteCheckpointFile(path, first); err != nil {
		t.Fatal(err)
	}
	// Grow the relation and write again: the newer state must fully replace
	// the older file (no stale tail bytes, which ReadCheckpoint would
	// reject as trailing garbage).
	rel := first.Relation.(*relation.Relation)
	rel.Append(relation.MustTuple(rel.Dictionary(), []string{"77"}, []string{"Annot_1"}))
	if err := WriteCheckpointFile(path, first); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Relation.Len() != first.Relation.Len() {
		t.Errorf("restored %d tuples, want %d", got.Relation.Len(), first.Relation.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("data dir holds %d entries after rewrites, want 1 (no temp litter)", len(entries))
	}
}
