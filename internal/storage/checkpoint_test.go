package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

// checkpointFixture packages the 10-tuple fixture world as a checkpoint,
// exercising every section with real content.
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
	return &Checkpoint{
		Relation: rel,
		Counters: []int64{1, 0, 2, 3, 0, 0, 4, 0, 5},
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
	if got.CheckpointMeta != want.CheckpointMeta {
		t.Errorf("head = %+v, want %+v", got.CheckpointMeta, want.CheckpointMeta)
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
	want := &Checkpoint{Relation: relation.New()}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Relation.Len() != 0 {
		t.Errorf("empty checkpoint round-tripped %d tuples", got.Relation.Len())
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
	ck.CoveredCursor = 12345
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, &ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || got.CoveredCursor != 12345 {
		t.Errorf("epoch/covered = %d/%d, want 3/12345", got.Epoch, got.CoveredCursor)
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

// TestCheckpointRejectsItemOutsideDictionary feeds a CRC-valid checkpoint
// whose one tuple holds data item 2 while the dictionary interns one data
// value. A tuple's item codes size the relation's postings, so accepting a
// code far past the dictionary would allocate without bound.
func TestCheckpointRejectsItemOutsideDictionary(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(checkpointMagic)
	for _, v := range []uint64{0, 1, 0, 1, 1} { // epoch, cursor, no fingerprint, one data token of one byte
		writeUvarint(&buf, v)
	}
	buf.WriteString("a")
	for _, v := range []uint64{0, 0, 1} { // no annotation or derived tokens, one tuple
		writeUvarint(&buf, v)
	}
	writeItemset(&buf, itemset.New(itemset.DataItem(2)))
	writeItemset(&buf, nil)
	writeUvarint(&buf, 0) // no counters
	buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(buf.Bytes())))
	_, err := ReadCheckpoint(&buf)
	var ce *ErrCheckpointCorrupt
	if !errors.As(err, &ce) {
		t.Fatalf("tuple item outside the dictionary: got %v, want ErrCheckpointCorrupt", err)
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

// TestReadCheckpointVersion3 decodes testdata/checkpoint-v3.db, written by
// the version 3 encoder from checkpointFixture's relation and counters with
// the head below. Version 3 also held the rule tiers and pattern catalogs;
// the reader steps over them and keeps the rest.
func TestReadCheckpointVersion3(t *testing.T) {
	got, err := ReadCheckpointFile(filepath.Join("testdata", "checkpoint-v3.db"))
	if err != nil {
		t.Fatal(err)
	}
	want := checkpointFixture(t)
	want.CheckpointMeta = CheckpointMeta{Epoch: 4, CoveredCursor: 17, ConfigFingerprint: "minsup=0.3 minconf=0.7"}
	assertCheckpointsEqual(t, got, want)

	// Written again, it is a version 4 checkpoint of the same state.
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("ADBCKPT\x04")) {
		t.Errorf("rewritten magic = %q, want version 4", buf.Bytes()[:8])
	}
	again, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertCheckpointsEqual(t, again, want)
}
