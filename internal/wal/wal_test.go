package wal

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/serve"
	"annotadb/internal/storage"
)

func testRecords() []Record {
	return []Record{
		{Kind: KindAddAnnotations, Updates: []Update{{Tuple: 0, Annotation: "Annot_1"}, {Tuple: 149, Annotation: "Annot_3"}}},
		{Kind: KindRemoveAnnotations, Updates: []Update{{Tuple: 7, Annotation: "Annot_5"}}},
		{Kind: KindAddTuples, Tuples: []TupleSpec{
			{Values: []string{"28", "85"}, Annotations: []string{"Annot_1"}},
			{Values: []string{"62"}},
		}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i, want := range testRecords() {
		payload, err := encodePayload(want)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		got, err := decodePayload(payload)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d: round trip = %+v, want %+v", i, got, want)
		}
	}
}

// TestRecordGoldenBytes pins the frame payloads of the record encoding: the
// body-encoding byte, the kind byte, then the varint body.
func TestRecordGoldenBytes(t *testing.T) {
	annotations := Record{Kind: KindAddAnnotations, Updates: []Update{{Tuple: 150, Annotation: "Annot_3"}, {Tuple: 0, Annotation: "Annot_src:db1"}}}
	tuples := Record{Kind: KindAddTuples, Tuples: []TupleSpec{{Values: []string{"28", "85"}, Annotations: []string{"Annot_1"}}, {Values: []string{"99"}}}}
	cases := []struct {
		rec  Record
		want string
	}{
		{annotations, "\x00\x01\x02\x96\x01\aAnnot_3\x00\rAnnot_src:db1\x00"},
		{tuples, "\x00\x03\x00\x02\x02\x0228\x0285\x01\aAnnot_1\x01\x0299\x00"},
	}
	for _, c := range cases {
		got, err := encodePayload(c.rec)
		if err != nil {
			t.Fatalf("%v: %v", c.rec.Kind, err)
		}
		if string(got) != c.want {
			t.Errorf("%v payload = %q, want %q", c.rec.Kind, got, c.want)
		}
		back, err := decodePayload([]byte(c.want))
		if err != nil || !reflect.DeepEqual(back, c.rec) {
			t.Errorf("%v golden payload decodes to %+v (%v), want %+v", c.rec.Kind, back, err, c.rec)
		}
	}
}

func TestRecordRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty payload":    {},
		"unknown kind":     {bodyBinary, 99},
		"unknown encoding": {42, byte(KindAddTuples)},
		"truncated body":   {bodyBinary, byte(KindAddAnnotations), 5},
		"JSON body":        {1, byte(KindAddTuples), '{'},
	}
	for name, payload := range cases {
		if _, err := decodePayload(payload); err == nil {
			t.Errorf("%s: decoded successfully, want error", name)
		}
	}
}

// openWAL opens the write-ahead log segment set in dir as Open does, with
// segments of segBytes (0: the default).
func openWAL(t *testing.T, dir string, segBytes int64) *SegmentedLog {
	t.Helper()
	l, err := OpenSegmented(SegmentedOptions{Dir: dir, Prefix: "wal", SegmentBytes: segBytes, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// appendRecords encodes and appends recs, returning each frame's size.
func appendRecords(t *testing.T, l *SegmentedLog, recs []Record) []int64 {
	t.Helper()
	var sizes []int64
	for _, rec := range recs {
		payload, err := encodePayload(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, int64(frameHeaderSize+len(payload)))
	}
	return sizes
}

// replayAll decodes every retained record of l, oldest first.
func replayAll(t *testing.T, l *SegmentedLog) []Record {
	t.Helper()
	payloads, err := l.ReadFrom(l.FirstCursor(), math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	for _, p := range payloads {
		rec, err := decodePayload(p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	return got
}

// TestLogAppendReplay round-trips records through the write-ahead log
// across a reopen, with segments small enough that they span several.
func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l := openWAL(t, dir, 64)
	if got := replayAll(t, l); len(got) != 0 || l.TornTail() {
		t.Fatalf("fresh log replay = %+v (torn %v), want empty", got, l.TornTail())
	}
	want := testRecords()
	appendRecords(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = openWAL(t, dir, 64)
	defer l.Close()
	if l.TornTail() {
		t.Error("clean log reported torn tail")
	}
	if got := replayAll(t, l); !reflect.DeepEqual(got, want) {
		t.Errorf("replay = %+v, want %+v", got, want)
	}
	if n := l.Stats().Segments; n < 2 {
		t.Errorf("records fill %d segment, want several", n)
	}
}

// TestLogTornTail truncates the newest segment at every byte offset inside
// the final record and checks recovery: all fully-written records replay,
// the torn tail is dropped and truncated away, and appends resume cleanly.
func TestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openWAL(t, dir, 0)
	records := testRecords()
	sizes := appendRecords(t, l, records)
	path := l.segmentPath(1)
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full := int64(len(raw))
	lastStart := full - sizes[len(sizes)-1]
	// A cut exactly on the record boundary is indistinguishable from a
	// clean log with one fewer record; torn detection starts one byte in.
	for cut := lastStart + 1; cut < full; cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tl := openWAL(t, dir, 0)
		if !tl.TornTail() {
			t.Errorf("cut %d: torn tail not detected", cut)
		}
		if got := replayAll(t, tl); len(got) != len(records)-1 {
			t.Errorf("cut %d: replayed %d records, want %d", cut, len(got), len(records)-1)
		}
		if st := tl.Stats(); st.RetainedBytes != lastStart {
			t.Errorf("cut %d: size after truncation %d, want %d", cut, st.RetainedBytes, lastStart)
		}
		// The log must accept appends again and replay them next open.
		appendRecords(t, tl, records[len(records)-1:])
		tl.Close()
		tl = openWAL(t, dir, 0)
		if got := replayAll(t, tl); tl.TornTail() || len(got) != len(records) {
			t.Errorf("cut %d: after repair replay = %d records (torn %v), want %d", cut, len(got), tl.TornTail(), len(records))
		}
		tl.Close()
	}
}

func TestLogCorruptTailDropped(t *testing.T) {
	dir := t.TempDir()
	l := openWAL(t, dir, 0)
	records := testRecords()
	appendRecords(t, l, records)
	path := l.segmentPath(1)
	l.Close()
	// Flip a byte in the last record's payload: the CRC catches it and the
	// record is dropped as a torn tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l = openWAL(t, dir, 0)
	defer l.Close()
	if got := replayAll(t, l); !l.TornTail() || len(got) != len(records)-1 {
		t.Errorf("corrupt tail: replay = %d records (torn %v), want %d records, torn", len(got), l.TornTail(), len(records)-1)
	}
}

// TestOpenLogRejectsForeignFile pins that neither log file a data dir can
// hold is guessed at: a foreign wal.log (where builds before the segmented
// WAL kept their log) and a foreign segment both fail the open.
func TestOpenLogRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("definitely not a wal file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}, testCfg(), incremental.Options{}, func() (*relation.Relation, error) {
		return fixtureRelation(), nil
	}); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("Open over a foreign wal.log = %v, want a bad-magic error", err)
	}
	segs := t.TempDir()
	if err := os.WriteFile(filepath.Join(segs, "wal-0000000000000001.seg"), []byte("definitely not a wal segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(SegmentedOptions{Dir: segs, Prefix: "wal"}); err == nil {
		t.Fatal("OpenSegmented accepted a foreign segment")
	}
}

// TestReplayPropagatesCallbackError pins that a record the engine refuses
// at replay fails the whole Open with the engine's error.
func TestReplayPropagatesCallbackError(t *testing.T) {
	dir := t.TempDir()
	s := openFixtureStore(t, Options{Dir: dir})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	l := openWAL(t, SegmentDir(dir), 0)
	appendRecords(t, l, []Record{{Kind: KindAddAnnotations, Updates: []Update{{Tuple: 0, Annotation: "28"}}}})
	l.Close()
	_, err := Open(Options{Dir: dir}, testCfg(), incremental.Options{}, nil)
	var corrupt *ErrRecordCorrupt
	if !errors.As(err, &corrupt) {
		t.Errorf("Open over a record replay refuses = %v, want the *ErrRecordCorrupt", err)
	}
}

// --- store-level fixtures shared with recovery_test.go -------------------

func fixtureRelation() *relation.Relation {
	return relation.FromTokens(
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
}

func testCfg() mining.Config {
	return mining.Config{MinSupport: 0.3, MinConfidence: 0.7}
}

func openFixtureStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts, testCfg(), incremental.Options{}, func() (*relation.Relation, error) {
		return fixtureRelation(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreBootstrapsEmptyDirAndRecovers(t *testing.T) {
	opts := Options{Dir: t.TempDir()}
	s := openFixtureStore(t, opts)
	if rec := s.Recovery(); rec.FromCheckpoint || rec.Records != 0 {
		t.Fatalf("fresh dir recovery = %+v, want bootstrap", rec)
	}
	if s.Stats().Checkpoints != 1 {
		t.Errorf("bootstrap wrote %d checkpoints, want 1 (the initial one)", s.Stats().Checkpoints)
	}
	wantRules := s.Engine().RulesView().Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the engine must come back from the checkpoint, not bootstrap.
	s2 := openFixtureStore(t, opts)
	rec := s2.Recovery()
	if !rec.FromCheckpoint || rec.Records != 0 || rec.TornTail {
		t.Fatalf("reopen recovery = %+v, want from-checkpoint with empty log", rec)
	}
	if got := s2.Engine().RulesView().Len(); got != wantRules {
		t.Errorf("recovered %d rules, want %d", got, wantRules)
	}
	if st := s2.Engine().Stats(); st.Bootstraps != 1 {
		t.Errorf("engine bootstraps after recovery = %d, want 1 (the open's mine is not a bootstrap)", st.Bootstraps)
	}
	if err := s2.Engine().Verify(); err != nil {
		t.Errorf("recovered state fails re-mine verification: %v", err)
	}
}

// TestReopenKeepsLifetimeCounters pins that a reopen carries every lifetime
// counter over from the checkpoint, the re-mine fallbacks /stats reports as
// remines included: the open's own mine counts as nothing.
func TestReopenKeepsLifetimeCounters(t *testing.T) {
	dir := t.TempDir()
	// A budget of one subset sends every attach to a multi-annotation tuple
	// to the re-mine fallback.
	eopts := incremental.Options{SubsetBudget: 1}
	open := func() *Store {
		t.Helper()
		s, err := Open(Options{Dir: dir}, testCfg(), eopts, func() (*relation.Relation, error) {
			return fixtureRelation(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	dict := s.Engine().Relation().Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	upd := []relation.AnnotationUpdate{{Index: 6, Annotation: a1}}
	for _, remove := range []bool{false, true} {
		if err := s.LogAnnotations(upd, remove); err != nil {
			t.Fatal(err)
		}
		apply := s.Engine().AddAnnotations
		if remove {
			apply = s.Engine().RemoveAnnotations
		}
		if _, err := apply(upd); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Engine().Stats()
	if want.Remines == 0 || want.Case3 == 0 || want.Removals == 0 {
		t.Fatalf("counters before close = %+v, want a re-mine, a Case 3 batch and a removal", want)
	}
	// The final checkpoint a serving close writes: the reopen replays
	// nothing, so every counter must come from the checkpoint.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open()
	defer s2.Close()
	if rec := s2.Recovery(); !rec.FromCheckpoint || rec.Records != 0 {
		t.Fatalf("reopen recovery = %+v, want from the checkpoint with nothing replayed", rec)
	}
	if got := s2.Engine().Stats(); got != want {
		t.Errorf("counters after reopen = %+v, want the closed store's %+v", got, want)
	}
}

// TestCheckpointInstallKeepsLogMode pins the install rule's file mode: an
// installed checkpoint gets the permissions the log gives its segments, not
// the 0600 of the temp file it was written to.
func TestCheckpointInstallKeepsLogMode(t *testing.T) {
	dir := t.TempDir()
	s := openFixtureStore(t, Options{Dir: dir}) // bootstrap installs the first checkpoint
	logInfo, err := os.Stat(s.log.segmentPath(1))
	if err != nil {
		t.Fatal(err)
	}
	ckInfo, err := os.Stat(CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ckInfo.Mode() != logInfo.Mode() {
		t.Errorf("checkpoint.db mode %v, segment mode %v: want equal", ckInfo.Mode(), logInfo.Mode())
	}
}

func TestStoreLogsAndReplaysAllMutationKinds(t *testing.T) {
	opts := Options{Dir: t.TempDir()}
	s := openFixtureStore(t, opts)
	dict := s.Engine().Relation().Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	a5, _ := dict.Lookup("Annot_5")

	// One record of each kind, including a duplicate attachment (skipped by
	// the engine, and must be skipped identically at replay).
	if err := s.LogTuples([]relation.Tuple{relation.MustTuple(dict, []string{"28", "85"}, []string{"Annot_1"})}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine().AddAnnotatedTuples([]relation.Tuple{relation.MustTuple(dict, []string{"28", "85"}, []string{"Annot_1"})}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogAnnotations([]relation.AnnotationUpdate{{Index: 5, Annotation: a1}, {Index: 0, Annotation: a1}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine().AddAnnotations([]relation.AnnotationUpdate{{Index: 5, Annotation: a1}, {Index: 0, Annotation: a1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogAnnotations([]relation.AnnotationUpdate{{Index: 6, Annotation: a5}}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine().RemoveAnnotations([]relation.AnnotationUpdate{{Index: 6, Annotation: a5}}); err != nil {
		t.Fatal(err)
	}
	// Zero-length batches must append nothing.
	if err := s.LogAnnotations(nil, false); err != nil {
		t.Fatal(err)
	}
	if err := s.LogTuples(nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().RecordsAppended; got != 3 {
		t.Fatalf("logged %d records, want 3 (empty batches excluded)", got)
	}
	wantView := renderedRules(s.Engine())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openFixtureStore(t, opts)
	rec := s2.Recovery()
	if !rec.FromCheckpoint || rec.Records != 3 || rec.TornTail {
		t.Fatalf("recovery = %+v, want from-checkpoint with 3 replayed records", rec)
	}
	if got := renderedRules(s2.Engine()); !reflect.DeepEqual(got, wantView) {
		t.Errorf("recovered rules:\n%v\nwant:\n%v", got, wantView)
	}
	if err := s2.Engine().Verify(); err != nil {
		t.Errorf("recovered state fails re-mine verification: %v", err)
	}
	if err := s2.Engine().Relation().CheckInvariants(); err != nil {
		t.Errorf("recovered relation invariants: %v", err)
	}
}

func TestStoreCheckpointPolicyTruncatesLog(t *testing.T) {
	opts := Options{Dir: t.TempDir(), CheckpointBytes: 1} // checkpoint after every committed batch
	s := openFixtureStore(t, opts)
	dict := s.Engine().Relation().Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	if err := s.LogAnnotations([]relation.AnnotationUpdate{{Index: 5, Annotation: a1}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine().AddAnnotations([]relation.AnnotationUpdate{{Index: 5, Annotation: a1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Committed(); err != nil {
		t.Fatal(err)
	}
	// Policy checkpoints install in the background; the writer collects the
	// result (and trims the covered segments) on a later Committed,
	// Checkpoint, or Close. Collect it deterministically here.
	if err := s.finishInstall(true); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Checkpoints != 2 { // initial + policy-triggered
		t.Errorf("checkpoints = %d, want 2", st.Checkpoints)
	}
	if st.LogBytes != segHeaderSize {
		t.Errorf("log bytes after checkpoint = %d, want %d (one empty segment)", st.LogBytes, segHeaderSize)
	}
	if st.LastCheckpointUnixNano == 0 {
		t.Error("LastCheckpointUnixNano not stamped")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openFixtureStore(t, opts)
	if rec := s2.Recovery(); !rec.FromCheckpoint || rec.Records != 0 {
		t.Fatalf("recovery after checkpoint = %+v, want from-checkpoint with empty log", rec)
	}
	if err := s2.Engine().Verify(); err != nil {
		t.Errorf("recovered state fails re-mine verification: %v", err)
	}
}

func TestStoreRejectsCheckpointTrailingGarbage(t *testing.T) {
	dir := t.TempDir()
	s := openFixtureStore(t, Options{Dir: dir})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(CheckpointPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("trailing garbage"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = Open(Options{Dir: dir}, testCfg(), incremental.Options{}, nil)
	var ce *storage.ErrCheckpointCorrupt
	if !errors.As(err, &ce) {
		t.Fatalf("open with garbage checkpoint = %v, want checkpoint corruption error", err)
	}
}

func TestStoreRefusesOrphanLog(t *testing.T) {
	dir := t.TempDir()
	s := openFixtureStore(t, Options{Dir: dir})
	dict := s.Engine().Relation().Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	if err := s.LogAnnotations([]relation.AnnotationUpdate{{Index: 5, Annotation: a1}}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(CheckpointPath(dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}, testCfg(), incremental.Options{}, func() (*relation.Relation, error) {
		return fixtureRelation(), nil
	}); err == nil {
		t.Fatal("Open bootstrapped over an orphan log")
	}
}

// renderedRules renders an engine's valid rules with its own dictionary,
// giving a representation comparable across engines whose interning order
// differs.
func renderedRules(eng *incremental.Engine) []string {
	dict := eng.Relation().Dictionary()
	view := eng.RulesView()
	out := make([]string, 0, view.Len())
	for _, r := range view.Sorted() {
		out = append(out, r.Format(dict))
	}
	return out
}

// TestStoreDropsStaleLogAfterCheckpointTruncateCrash simulates the crash
// window between checkpoint install and the trim: the checkpoint already
// folds in every logged record, so recovery must drop the covered segment
// instead of double-applying it.
func TestStoreDropsStaleLogAfterCheckpointTruncateCrash(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, CheckpointBytes: -1}
	s := openFixtureStore(t, opts)
	dict := s.Engine().Relation().Dictionary()

	// Log and apply a tuple batch, then capture the log as it stood.
	tu := relation.MustTuple(dict, []string{"28", "85"}, []string{"Annot_1"})
	if err := s.LogTuples([]relation.Tuple{tu}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine().AddAnnotatedTuples([]relation.Tuple{tu.Clone()}); err != nil {
		t.Fatal(err)
	}
	segPath := s.log.segmentPath(1)
	staleSeg, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	wantTuples := s.Engine().Relation().Len()
	wantRules := renderedRules(s.Engine())

	// Checkpoint (install + trim), then put the trimmed segment back:
	// exactly the state a crash in the window leaves behind.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatalf("covered segment survived the checkpoint: %v", err)
	}
	if err := os.WriteFile(segPath, staleSeg, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openFixtureStore(t, opts)
	rec := s2.Recovery()
	if !rec.FromCheckpoint || rec.Records != 0 {
		t.Fatalf("recovery = %+v, want from-checkpoint with 0 replayed", rec)
	}
	if got := s2.Engine().Relation().Len(); got != wantTuples {
		t.Errorf("recovered %d tuples, want %d (covered record double-applied?)", got, wantTuples)
	}
	if got := renderedRules(s2.Engine()); !reflect.DeepEqual(got, wantRules) {
		t.Errorf("recovered rules:\n%v\nwant:\n%v", got, wantRules)
	}
	if err := s2.Engine().Verify(); err != nil {
		t.Errorf("recovered state fails re-mine verification: %v", err)
	}
	if s2.HasPendingRecords() {
		t.Error("dropped segment still reports pending records")
	}
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Errorf("open did not finish the trim: %v", err)
	}
}

// TestStoreRefusesConfigMismatch pins the fingerprint check: reopening a
// data dir under different thresholds must fail loudly, not serve rules
// mined under the old ones.
func TestStoreRefusesConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openFixtureStore(t, Options{Dir: dir})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.MinSupport = 0.2 // not what the checkpoint was mined under
	_, err := Open(Options{Dir: dir}, cfg, incremental.Options{}, nil)
	if err == nil || !strings.Contains(err.Error(), "different mining configuration") {
		t.Fatalf("open under changed thresholds = %v, want config-mismatch error", err)
	}
	// Matching configuration still opens.
	s2, err := Open(Options{Dir: dir}, testCfg(), incremental.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

// TestFingerprintSlack pins the slack facet of the fingerprint: a slack of
// 1 or more, which keeps no near-miss pool, prints as 1, and 0 prints
// unresolved. The bytes are those checkpoints have always recorded, so a
// directory written at slack 1 reopens under the same configuration.
func TestFingerprintSlack(t *testing.T) {
	for _, tc := range []struct {
		slack float64
		want  string
	}{{0, " slack=0 "}, {0.5, " slack=0.5 "}, {1, " slack=1 "}, {1.5, " slack=1 "}} {
		cfg := testCfg()
		cfg.CandidateSlack = tc.slack
		if fp := Fingerprint(cfg, ""); !strings.Contains(fp, tc.want) {
			t.Errorf("slack %g: fingerprint %q lacks %q", tc.slack, fp, tc.want)
		}
	}
	cfg := testCfg()
	cfg.CandidateSlack = 1
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir}, cfg, incremental.Options{}, func() (*relation.Relation, error) {
		return fixtureRelation(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(Options{Dir: dir}, cfg, incremental.Options{}, nil)
	if err != nil {
		t.Fatalf("reopen at slack 1: %v", err)
	}
	s.Close()
}

// TestReplayRefusesWrongKindToken pins how replay reports a logged token in
// the wrong kind's role: the record is corrupt, in its replay context.
func TestReplayRefusesWrongKindToken(t *testing.T) {
	s := openFixtureStore(t, Options{Dir: t.TempDir()})
	for _, rec := range []Record{
		{Kind: KindAddAnnotations, Updates: []Update{{Tuple: 0, Annotation: "28"}}},
		{Kind: KindRemoveAnnotations, Updates: []Update{{Tuple: 0, Annotation: "28"}}},
		{Kind: KindAddTuples, Tuples: []TupleSpec{{Values: []string{"85"}, Annotations: []string{"28"}}}},
		{Kind: KindAddTuples, Tuples: []TupleSpec{{Values: []string{"Annot_1"}}}},
	} {
		err := s.applyRecord(rec)
		var corrupt *ErrRecordCorrupt
		if !errors.As(err, &corrupt) || !strings.HasPrefix(err.Error(), "wal: replay") {
			t.Errorf("%v record: err = %v, want a *ErrRecordCorrupt in replay context", rec.Kind, err)
		}
	}
}

// TestLogMidCorruptionIsHardError pins the boundary between a torn tail
// (last record, truncate and continue) and mid-log damage (intact records
// follow the bad frame; truncating would discard durable acknowledged
// records, so the open must refuse).
func TestLogMidCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	l := openWAL(t, dir, 0)
	appendRecords(t, l, testRecords())
	path := l.segmentPath(1)
	l.Close()
	// Flip a payload byte of the FIRST record: two intact records follow.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderSize+frameHeaderSize] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(SegmentedOptions{Dir: dir, Prefix: "wal", RetainSegments: -1}); err == nil || !strings.Contains(err.Error(), "mid-segment corruption") {
		t.Fatalf("open over mid-log damage = %v, want hard mid-segment corruption error", err)
	}
}

// TestStoreReplaysUncoveredTailAfterInstallCrash simulates the crash window
// background checkpointing opens: a checkpoint is captured and installed
// while the writer keeps appending, and the process dies before the trim.
// The checkpoint's CoveredCursor then splits the log — the records below it
// are folded in (replaying them would double-apply), the rest are not
// (dropping them would lose acknowledged writes). Recovery must replay
// exactly the rest.
func TestStoreReplaysUncoveredTailAfterInstallCrash(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, CheckpointBytes: -1}
	s := openFixtureStore(t, opts)
	dict := s.Engine().Relation().Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	a5, _ := dict.Lookup("Annot_5")

	// Batch A: logged and applied, then captured by a checkpoint.
	batchA := []relation.AnnotationUpdate{{Index: 5, Annotation: a1}}
	if err := s.LogAnnotations(batchA, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine().AddAnnotations(batchA); err != nil {
		t.Fatal(err)
	}
	ck, _ := s.capture() // what the background installer would serialize

	// Batch B: appended while the install is "in flight".
	batchB := []relation.AnnotationUpdate{{Index: 7, Annotation: a5}}
	if err := s.LogAnnotations(batchB, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine().AddAnnotations(batchB); err != nil {
		t.Fatal(err)
	}
	wantRules := renderedRules(s.Engine())
	wantTuples := s.Engine().Relation().Len()

	// Install the checkpoint durably, then "crash" before the trim.
	if err := storage.WriteCheckpointFile(CheckpointPath(dir), ck); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openFixtureStore(t, opts)
	rec := s2.Recovery()
	if !rec.FromCheckpoint {
		t.Fatal("reopen did not recover from the installed checkpoint")
	}
	if rec.Records != 1 {
		t.Fatalf("replayed %d records, want 1 (batch B only — batch A is covered)", rec.Records)
	}
	if got := s2.Engine().Relation().Len(); got != wantTuples {
		t.Errorf("recovered %d tuples, want %d", got, wantTuples)
	}
	if got := renderedRules(s2.Engine()); !reflect.DeepEqual(got, wantRules) {
		t.Errorf("recovered rules:\n%v\nwant:\n%v", got, wantRules)
	}
	if err := s2.Engine().Verify(); err != nil {
		t.Errorf("recovered state fails re-mine verification: %v", err)
	}
	// Batch B stays the (only) pending record.
	if !s2.HasPendingRecords() {
		t.Error("uncovered tail did not survive the reopen")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A third open replays the same tail again.
	s3 := openFixtureStore(t, opts)
	if rec := s3.Recovery(); rec.Records != 1 {
		t.Fatalf("third open recovery = %+v, want 1 replayed record", rec)
	}
	if err := s3.Engine().Verify(); err != nil {
		t.Errorf("third open fails re-mine verification: %v", err)
	}
}

// awaitInstallJournal is a store as the serving writer journals to it,
// except that Committed first gives the background install in flight up to
// installWait to finish, so every batch's Committed collects the install
// the batch before it launched. The install still overlaps the next
// batch's append and apply. Without the wait, one install whose fsync
// outlasts the whole write loop is the only checkpoint the loop collects.
type awaitInstallJournal struct{ *Store }

const installWait = 10 * time.Second

func (j awaitInstallJournal) Committed() error {
	if in := j.inflight; in != nil { // writer-only state, read on the writer
		select {
		case err := <-in.done:
			in.done <- err // hand the result back for Committed to collect
		case <-time.After(installWait):
		}
	}
	return j.Store.Committed()
}

// TestStoreBackgroundCheckpointsUnderServingLoad drives the production
// wiring — serve writer + journal — with a per-batch checkpoint policy so
// background installs continuously overlap appends, then closes gracefully
// and verifies the recovered state against a full re-mine.
func TestStoreBackgroundCheckpointsUnderServingLoad(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, CheckpointBytes: 1}
	s := openFixtureStore(t, opts)
	srv := serve.New(s.Engine(), serve.Config{BatchWindow: -1, Journal: awaitInstallJournal{s}})
	dict := s.Engine().Relation().Dictionary()
	a1, _ := dict.Lookup("Annot_1")
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		var err error
		if i%2 == 0 {
			_, err = srv.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: i % 10, Annotation: a1}})
		} else {
			_, err = srv.RemoveAnnotations(ctx, []relation.AnnotationUpdate{{Index: i % 10, Annotation: a1}})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	wantRules := renderedRules(s.Engine())
	st := s.Stats()
	if st.Checkpoints < 2 {
		t.Errorf("background policy wrote %d checkpoints, want >= 2", st.Checkpoints)
	}
	if st.CheckpointErrors != 0 {
		t.Errorf("checkpoint errors = %d, want 0", st.CheckpointErrors)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openFixtureStore(t, opts)
	if !s2.Recovery().FromCheckpoint {
		t.Fatal("reopen did not recover from checkpoint")
	}
	if got := renderedRules(s2.Engine()); !reflect.DeepEqual(got, wantRules) {
		t.Errorf("recovered rules:\n%v\nwant:\n%v", got, wantRules)
	}
	if err := s2.Engine().Verify(); err != nil {
		t.Errorf("recovered state fails re-mine verification: %v", err)
	}
}

// TestStoreFailedLatchRefusesWrites pins the health-probe contract of the
// failure latch: a cleanly failed append (the write itself errored, nothing
// durable is ambiguous) does NOT latch, while a latched store — the state
// the fsync-failure and trim-failure paths enter via latch() —
// reports the cause through Failed() from any goroutine and refuses every
// later append and checkpoint with that cause.
func TestStoreFailedLatchRefusesWrites(t *testing.T) {
	s := openFixtureStore(t, Options{Dir: t.TempDir(), Sync: SyncAlways})
	if err := s.Failed(); err != nil {
		t.Fatalf("fresh store already failed: %v", err)
	}
	dict := s.Engine().Relation().Dictionary()
	a1, _ := dict.Lookup("Annot_1")

	// A write that fails outright (broken descriptor) is a clean failure:
	// nothing reached the file, so the store must NOT latch.
	good := s.log.active
	s.log.active, _ = os.Open(good.Name()) // read-only: WriteAt fails, nothing lands
	if err := s.LogAnnotations([]relation.AnnotationUpdate{{Index: 5, Annotation: a1}}, false); err == nil {
		t.Fatal("append through a read-only descriptor succeeded")
	}
	if err := s.Failed(); err != nil {
		t.Fatalf("clean append failure latched the store: %v", err)
	}
	s.log.active.Close()
	s.log.active = good

	// Now latch, exactly as the fsync-failure path does, and check the
	// probe surface: Failed reports the cause, appends and checkpoints are
	// refused wrapping it.
	cause := errors.New("sync wal.log: input/output error")
	s.latch(cause)
	if err := s.Failed(); !errors.Is(err, cause) {
		t.Fatalf("Failed() = %v, want %v", err, cause)
	}
	err := s.LogAnnotations([]relation.AnnotationUpdate{{Index: 4, Annotation: a1}}, false)
	if err == nil || !errors.Is(err, cause) {
		t.Fatalf("append after latch: err = %v, want wrapped %v", err, cause)
	}
	if err := s.Checkpoint(); err == nil || !errors.Is(err, cause) {
		t.Fatalf("checkpoint after latch: err = %v, want wrapped %v", err, cause)
	}
}
