package wal

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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

func TestRecordRoundTripBothEncodings(t *testing.T) {
	for _, enc := range []Encoding{EncodingBinary, EncodingJSON} {
		for i, want := range testRecords() {
			payload, err := encodePayload(want, enc)
			if err != nil {
				t.Fatalf("%v record %d: encode: %v", enc, i, err)
			}
			got, err := decodePayload(payload)
			if err != nil {
				t.Fatalf("%v record %d: decode: %v", enc, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v record %d: round trip = %+v, want %+v", enc, i, got, want)
			}
		}
	}
}

// TestRecordGoldenBytes pins the frame payloads of both encodings. The
// record's Update and TupleSpec are the relation package's token-form types,
// whose JSON tags also name the HTTP request body keys: a wire rename there
// would silently change the JSON log format, and this is the test that
// notices. The bytes were captured before the types were shared.
func TestRecordGoldenBytes(t *testing.T) {
	annotations := Record{Kind: KindAddAnnotations, Updates: []Update{{Tuple: 150, Annotation: "Annot_3"}, {Tuple: 0, Annotation: "Annot_src:db1"}}}
	tuples := Record{Kind: KindAddTuples, Tuples: []TupleSpec{{Values: []string{"28", "85"}, Annotations: []string{"Annot_1"}}, {Values: []string{"99"}}}}
	cases := []struct {
		rec  Record
		enc  Encoding
		want string
	}{
		{annotations, EncodingBinary, "\x00\x01\x02\x96\x01\aAnnot_3\x00\rAnnot_src:db1\x00"},
		{annotations, EncodingJSON, "\x01\x01" + `{"updates":[{"tuple":150,"annotation":"Annot_3"},{"tuple":0,"annotation":"Annot_src:db1"}]}`},
		{tuples, EncodingBinary, "\x00\x03\x00\x02\x02\x0228\x0285\x01\aAnnot_1\x01\x0299\x00"},
		{tuples, EncodingJSON, "\x01\x03" + `{"tuples":[{"values":["28","85"],"annotations":["Annot_1"]},{"values":["99"]}]}`},
	}
	for _, c := range cases {
		got, err := encodePayload(c.rec, c.enc)
		if err != nil {
			t.Fatalf("%v %v: %v", c.rec.Kind, c.enc, err)
		}
		if string(got) != c.want {
			t.Errorf("%v %v payload = %q, want %q", c.rec.Kind, c.enc, got, c.want)
		}
		back, err := decodePayload([]byte(c.want))
		if err != nil || !reflect.DeepEqual(back, c.rec) {
			t.Errorf("%v %v golden payload decodes to %+v (%v), want %+v", c.rec.Kind, c.enc, back, err, c.rec)
		}
	}
}

func TestRecordRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty payload":    {},
		"unknown kind":     {byte(EncodingBinary), 99},
		"unknown encoding": {42, byte(KindAddTuples)},
		"truncated body":   {byte(EncodingBinary), byte(KindAddAnnotations), 5},
		"bad JSON":         {byte(EncodingJSON), byte(KindAddTuples), '{'},
	}
	for name, payload := range cases {
		if _, err := decodePayload(payload); err == nil {
			t.Errorf("%s: decoded successfully, want error", name)
		}
	}
}

func replayAll(t *testing.T, l *Log) ([]Record, ReplayInfo) {
	t.Helper()
	var got []Record
	info, err := l.Replay(func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, info
}

func TestLogAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	for _, enc := range []Encoding{EncodingBinary, EncodingJSON} {
		l, err := OpenLog(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, info := replayAll(t, l); info.Records != 0 || info.TornTail {
			t.Fatalf("%v: fresh log replay = %+v, want empty", enc, info)
		}
		want := testRecords()
		for _, rec := range want {
			if _, err := l.Append(rec, enc); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = OpenLog(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, info := replayAll(t, l)
		if info.TornTail {
			t.Errorf("%v: clean log reported torn tail", enc)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: replay = %+v, want %+v", enc, got, want)
		}
		if err := l.Truncate(1); err != nil { // reset for the next encoding
			t.Fatal(err)
		}
		l.Close()
	}
}

// TestLogTornTail truncates the log at every byte offset inside the final
// record and checks recovery: all fully-written records replay, the torn
// tail is dropped and truncated away, and appends resume cleanly.
func TestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := OpenLog(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	records := testRecords()
	var sizes []int64
	for _, rec := range records {
		n, err := l.Append(rec, EncodingBinary)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, n)
	}
	full := l.Size()
	l.Close()
	lastStart := full - sizes[len(sizes)-1]
	// A cut exactly on the record boundary is indistinguishable from a
	// clean log with one fewer record; torn detection starts one byte in.
	for cut := lastStart + 1; cut < full; cut++ {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tornPath := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(tornPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tl, err := OpenLog(tornPath, 1)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got, info := replayAll(t, tl)
		if !info.TornTail {
			t.Errorf("cut %d: torn tail not detected", cut)
		}
		if len(got) != len(records)-1 {
			t.Errorf("cut %d: replayed %d records, want %d", cut, len(got), len(records)-1)
		}
		if tl.Size() != lastStart {
			t.Errorf("cut %d: size after truncation %d, want %d", cut, tl.Size(), lastStart)
		}
		// The log must accept appends again and replay them next open.
		if _, err := tl.Append(records[len(records)-1], EncodingBinary); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		tl.Close()
		tl, err = OpenLog(tornPath, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, info = replayAll(t, tl)
		if info.TornTail || len(got) != len(records) {
			t.Errorf("cut %d: after repair replay = %d records (torn %v), want %d", cut, len(got), info.TornTail, len(records))
		}
		tl.Close()
	}
}

func TestLogCorruptTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	records := testRecords()
	for _, rec := range records {
		if _, err := l.Append(rec, EncodingBinary); err != nil {
			t.Fatal(err)
		}
	}
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
	l, err = OpenLog(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got, info := replayAll(t, l)
	if !info.TornTail || len(got) != len(records)-1 {
		t.Errorf("corrupt tail: replay = %d records (torn %v), want %d records, torn", len(got), info.TornTail, len(records)-1)
	}
}

func TestOpenLogRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notawal.log")
	if err := os.WriteFile(path, []byte("definitely not a wal file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path, 1); err == nil {
		t.Fatal("OpenLog accepted a foreign file")
	}
}

func TestReplayPropagatesCallbackError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(testRecords()[0], EncodingBinary); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := l.Replay(func(Record) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("replay error = %v, want %v", err, boom)
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
	// Reopen: the engine must come back from the checkpoint, not a mine.
	s2 := openFixtureStore(t, opts)
	rec := s2.Recovery()
	if !rec.FromCheckpoint || rec.Records != 0 || rec.TornTail {
		t.Fatalf("reopen recovery = %+v, want from-checkpoint with empty log", rec)
	}
	if got := s2.Engine().RulesView().Len(); got != wantRules {
		t.Errorf("recovered %d rules, want %d", got, wantRules)
	}
	if st := s2.Engine().Stats(); st.Bootstraps != 1 {
		t.Errorf("engine bootstraps after recovery = %d, want 1 (no re-mine)", st.Bootstraps)
	}
	if err := s2.Engine().Verify(); err != nil {
		t.Errorf("recovered state fails re-mine verification: %v", err)
	}
}

// TestCheckpointInstallKeepsLogMode pins the install rule's file mode: an
// installed checkpoint gets the permissions OpenLog gives wal.log, not the
// 0600 of the temp file it was written to.
func TestCheckpointInstallKeepsLogMode(t *testing.T) {
	dir := t.TempDir()
	openFixtureStore(t, Options{Dir: dir}) // bootstrap installs the first checkpoint
	logInfo, err := os.Stat(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	ckInfo, err := os.Stat(CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ckInfo.Mode() != logInfo.Mode() {
		t.Errorf("checkpoint.db mode %v, wal.log mode %v: want equal", ckInfo.Mode(), logInfo.Mode())
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
	if got := s.Stats().Records; got != 3 {
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
	// result (and truncates the covered log prefix) on a later Committed,
	// Checkpoint, or Close. Collect it deterministically here.
	if err := s.finishInstall(true); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Checkpoints != 2 { // initial + policy-triggered
		t.Errorf("checkpoints = %d, want 2", st.Checkpoints)
	}
	if st.LogBytes != int64(logHeaderSize) {
		t.Errorf("log bytes after checkpoint = %d, want %d (empty)", st.LogBytes, logHeaderSize)
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
// window between checkpoint install and log truncation: the checkpoint
// already folds in every logged record, so recovery must discard the log
// (older epoch) instead of double-applying it.
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
	staleLog, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	wantTuples := s.Engine().Relation().Len()
	wantRules := renderedRules(s.Engine())

	// Checkpoint (install + truncate), then put the pre-truncation log
	// back: exactly the state a crash in the window leaves behind.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(LogPath(dir), staleLog, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openFixtureStore(t, opts)
	rec := s2.Recovery()
	if !rec.FromCheckpoint || !rec.StaleLogDropped || rec.Records != 0 {
		t.Fatalf("recovery = %+v, want from-checkpoint with stale log dropped and 0 replayed", rec)
	}
	if got := s2.Engine().Relation().Len(); got != wantTuples {
		t.Errorf("recovered %d tuples, want %d (stale log double-applied?)", got, wantTuples)
	}
	if got := renderedRules(s2.Engine()); !reflect.DeepEqual(got, wantRules) {
		t.Errorf("recovered rules:\n%v\nwant:\n%v", got, wantRules)
	}
	if err := s2.Engine().Verify(); err != nil {
		t.Errorf("recovered state fails re-mine verification: %v", err)
	}
	// The log must now carry the checkpoint's epoch and accept new records.
	if s2.HasPendingRecords() {
		t.Error("dropped log still reports pending records")
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
// records, so Replay must refuse).
func TestLogMidCorruptionIsHardError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	records := testRecords()
	var offsets []int64
	at := l.Size()
	for _, rec := range records {
		n, err := l.Append(rec, EncodingBinary)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, at)
		at += n
	}
	l.Close()
	// Flip a payload byte of the FIRST record: two intact records follow.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[offsets[0]+frameHeaderSize] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = OpenLog(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, err = l.Replay(func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "mid-log corruption") {
		t.Fatalf("replay over mid-log damage = %v, want hard mid-log corruption error", err)
	}
}

// TestStoreReplaysUncoveredTailAfterInstallCrash simulates the crash window
// background checkpointing opens: a checkpoint is captured and installed
// while the writer keeps appending, and the process dies before the log is
// truncated. The checkpoint's CoveredBytes then splits the log — the prefix
// is folded in (replaying it would double-apply), the tail is not (dropping
// it would lose acknowledged writes). Recovery must replay exactly the tail.
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
	ck := s.capture() // what the background installer would serialize

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

	// Install the checkpoint durably, then "crash" before the truncation.
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
	if !rec.StaleLogDropped {
		t.Error("covered log prefix not reported as dropped")
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
	// The finished truncation re-stamped the log with the checkpoint's epoch
	// and kept batch B as its (only) pending record.
	if !s2.HasPendingRecords() {
		t.Error("uncovered tail did not survive the finished truncation")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A third open replays the tail again off the equal-epoch log.
	s3 := openFixtureStore(t, opts)
	if rec := s3.Recovery(); rec.Records != 1 || rec.StaleLogDropped {
		t.Fatalf("third open recovery = %+v, want 1 replayed record from the equal-epoch log", rec)
	}
	if err := s3.Engine().Verify(); err != nil {
		t.Errorf("third open fails re-mine verification: %v", err)
	}
}

// TestStoreBackgroundCheckpointsUnderServingLoad drives the production
// wiring — serve writer + journal — with a per-batch checkpoint policy so
// background installs continuously overlap appends, then closes gracefully
// and verifies the recovered state against a full re-mine.
func TestStoreBackgroundCheckpointsUnderServingLoad(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, CheckpointBytes: 1}
	s := openFixtureStore(t, opts)
	srv := serve.New(s.Engine(), serve.Config{BatchWindow: -1, Journal: s})
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
// the fsync-failure and truncation-failure paths enter via latch() —
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
	good := s.log.f
	s.log.f, _ = os.Open(s.log.path) // read-only: WriteAt fails, nothing lands
	if err := s.LogAnnotations([]relation.AnnotationUpdate{{Index: 5, Annotation: a1}}, false); err == nil {
		t.Fatal("append through a read-only descriptor succeeded")
	}
	if err := s.Failed(); err != nil {
		t.Fatalf("clean append failure latched the store: %v", err)
	}
	s.log.f.Close()
	s.log.f = good

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
