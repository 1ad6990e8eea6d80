package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openSeg(t *testing.T, opts SegmentedOptions) *SegmentedLog {
	t.Helper()
	l, err := OpenSegmented(opts)
	if err != nil {
		t.Fatalf("OpenSegmented: %v", err)
	}
	t.Cleanup(func() {
		if err := l.Close(); err != nil {
			t.Errorf("close segmented log: %v", err)
		}
	})
	return l
}

func appendN(t *testing.T, l *SegmentedLog, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		cursor, err := l.Append([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := uint64(i + 1); cursor != want {
			t.Fatalf("append %d assigned cursor %d, want %d", i, cursor, want)
		}
	}
}

func readAll(t *testing.T, l *SegmentedLog, from uint64) []string {
	t.Helper()
	var out []string
	for {
		payloads, err := l.ReadFrom(from, 7) // odd batch size exercises paging
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", from, err)
		}
		if len(payloads) == 0 {
			return out
		}
		for _, p := range payloads {
			out = append(out, string(p))
		}
		from += uint64(len(payloads))
	}
}

func TestSegmentedAppendReadRoundTrip(t *testing.T) {
	t.Parallel()
	l := openSeg(t, SegmentedOptions{Dir: t.TempDir(), SegmentBytes: 1 << 20})
	appendN(t, l, 0, 100)
	got := readAll(t, l, 1)
	if len(got) != 100 {
		t.Fatalf("read %d records, want 100", len(got))
	}
	for i, s := range got {
		if want := fmt.Sprintf("record-%04d", i); s != want {
			t.Fatalf("record %d = %q, want %q", i, s, want)
		}
	}
	// Mid-stream resume.
	if got := readAll(t, l, 51); len(got) != 50 || got[0] != "record-0050" {
		t.Fatalf("resume at 51: %d records, first %q", len(got), got[0])
	}
	// Beyond the end: empty, no error.
	if payloads, err := l.ReadFrom(101, 10); err != nil || len(payloads) != 0 {
		t.Fatalf("read past end: %d records, err %v", len(payloads), err)
	}
}

func TestSegmentedRotationAndRetention(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// Tiny segments: every record is ~19 bytes framed, so a 64-byte segment
	// rotates every few records.
	l := openSeg(t, SegmentedOptions{Dir: dir, SegmentBytes: 64, RetainSegments: 3})
	appendN(t, l, 0, 60)
	st := l.Stats()
	if st.Rotations == 0 {
		t.Fatal("no rotations despite tiny SegmentBytes")
	}
	if st.Segments > 4 {
		t.Fatalf("%d segments retained, want <= RetainSegments+1 = 4", st.Segments)
	}
	if st.RetentionTrims == 0 || st.TrimmedBytes == 0 {
		t.Fatalf("retention never trimmed: %+v", st)
	}
	if st.RotatedBytes == 0 {
		t.Fatalf("rotated bytes not counted: %+v", st)
	}
	if st.FirstCursor <= 1 {
		t.Fatalf("FirstCursor = %d after trims, want > 1", st.FirstCursor)
	}
	// The retained suffix reads back exactly.
	got := readAll(t, l, st.FirstCursor)
	if want := int(st.NextCursor - st.FirstCursor); len(got) != want {
		t.Fatalf("retained read: %d records, want %d", len(got), want)
	}
	if first := fmt.Sprintf("record-%04d", st.FirstCursor-1); got[0] != first {
		t.Fatalf("first retained record = %q, want %q", got[0], first)
	}
	// A trimmed cursor reports the gap with the resume point.
	var trimmed *ErrCursorTrimmed
	if _, err := l.ReadFrom(1, 10); !errors.As(err, &trimmed) {
		t.Fatalf("trimmed read error = %v, want ErrCursorTrimmed", err)
	} else if trimmed.FirstCursor != st.FirstCursor {
		t.Fatalf("trimmed error resume point %d, want %d", trimmed.FirstCursor, st.FirstCursor)
	}
}

func TestSegmentedReopenContinuesCursors(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opts := SegmentedOptions{Dir: dir, SegmentBytes: 128, RetainSegments: -1}
	l, err := OpenSegmented(opts)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 25)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openSeg(t, opts)
	if next := l2.NextCursor(); next != 26 {
		t.Fatalf("reopened NextCursor = %d, want 26", next)
	}
	appendN(t, l2, 25, 25)
	got := readAll(t, l2, 1)
	if len(got) != 50 {
		t.Fatalf("after reopen: %d records, want 50", len(got))
	}
	for i, s := range got {
		if want := fmt.Sprintf("record-%04d", i); s != want {
			t.Fatalf("record %d = %q, want %q", i, s, want)
		}
	}
}

func TestSegmentedReopenDropsTornTail(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opts := SegmentedOptions{Dir: dir, SegmentBytes: 1 << 20}
	l, err := OpenSegmented(opts)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop a few bytes off the active segment.
	path := filepath.Join(dir, "seg-0000000000000001.seg")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-4); err != nil {
		t.Fatal(err)
	}
	l2 := openSeg(t, opts)
	if next := l2.NextCursor(); next != 10 {
		t.Fatalf("NextCursor after torn tail = %d, want 10 (one record dropped)", next)
	}
	if got := readAll(t, l2, 1); len(got) != 9 {
		t.Fatalf("%d records after torn tail, want 9", len(got))
	}
	// The dropped cursor is reassigned to the next append.
	cursor, err := l2.Append([]byte("replacement"))
	if err != nil || cursor != 10 {
		t.Fatalf("append after torn tail: cursor %d err %v, want 10", cursor, err)
	}
}

func TestSegmentedReopenRefusesMidHistoryCorruption(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opts := SegmentedOptions{Dir: dir, SegmentBytes: 64, RetainSegments: -1}
	l, err := OpenSegmented(opts)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 30)
	if l.Stats().Rotations == 0 {
		t.Fatal("fixture never rotated")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the FIRST (sealed) segment: damage that can
	// never be a torn append must refuse to open, not silently drop history.
	path := filepath.Join(dir, "seg-0000000000000001.seg")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderSize+frameHeaderSize] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(opts); err == nil {
		t.Fatal("OpenSegmented accepted a corrupt sealed segment")
	}
}

func TestSegmentedConcurrentReadersAndWriter(t *testing.T) {
	t.Parallel()
	l := openSeg(t, SegmentedOptions{Dir: t.TempDir(), SegmentBytes: 256, RetainSegments: -1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		appendN(t, l, 0, 400)
	}()
	// Readers page through whatever exists while the writer appends; every
	// record observed must be intact and in cursor order.
	for i := 0; i < 3; i++ {
		var cursor uint64 = 1
		for {
			payloads, err := l.ReadFrom(cursor, 16)
			if err != nil {
				t.Errorf("concurrent ReadFrom(%d): %v", cursor, err)
				return
			}
			if len(payloads) == 0 {
				select {
				case <-done:
					if cursor >= 401 {
						return
					}
				default:
				}
				continue
			}
			for _, p := range payloads {
				if want := fmt.Sprintf("record-%04d", cursor-1); string(p) != want {
					t.Errorf("cursor %d = %q, want %q", cursor, p, want)
					return
				}
				cursor++
			}
		}
	}
}

// TestSegmentedBatchAppendMatchesSingleAppends pins that a batch append
// lands byte for byte where record-by-record appends would: the same frames,
// cursors and rotation points, including for a batch that crosses several
// segment boundaries and one that starts in an active segment already over
// SegmentBytes (reopened with a smaller limit).
func TestSegmentedBatchAppendMatchesSingleAppends(t *testing.T) {
	t.Parallel()
	events := func(from, to int) [][]byte {
		var out [][]byte
		for i := from; i <= to; i++ {
			out = append(out, []byte(fmt.Sprintf("event-%d", i)))
		}
		return out
	}
	// appendBatches appends events 1..len(sizes summed) in batches of the
	// given sizes, checking each batch's first cursor.
	appendBatches := func(l *SegmentedLog, next int, sizes []int) {
		t.Helper()
		for _, n := range sizes {
			first, err := l.Append(events(next, next+n-1)...)
			if err != nil {
				t.Fatal(err)
			}
			if first != uint64(next) {
				t.Fatalf("batch of %d from event %d assigned cursor %d", n, next, first)
			}
			next += n
		}
	}
	closeLog := func(l *SegmentedLog) {
		t.Helper()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The golden events segments: six 15-byte frames, 64-byte segments.
	golden := readTree(t, filepath.Join("testdata", "disk", "events"))
	for _, sizes := range [][]int{{6}, {1, 5}, {4, 2}, {2, 2, 2}} {
		dir := t.TempDir()
		l, err := OpenSegmented(SegmentedOptions{Dir: dir, Prefix: "events", SegmentBytes: 64, RetainSegments: -1})
		if err != nil {
			t.Fatal(err)
		}
		appendBatches(l, 1, sizes)
		closeLog(l)
		got := readTree(t, dir)
		if len(got) != len(golden) {
			t.Fatalf("batches %v wrote %d segments, golden has %d", sizes, len(got), len(golden))
		}
		for name, want := range golden {
			if string(got[name]) != string(want) {
				t.Errorf("batches %v: %s differs from the golden segment:\n got %x\nwant %x", sizes, name, got[name], want)
			}
		}
	}

	// Five records (91 bytes) in a large segment, reopened with 64-byte
	// segments, then fifteen more.
	scenario := func(sizes []int) map[string][]byte {
		dir := t.TempDir()
		l, err := OpenSegmented(SegmentedOptions{Dir: dir, RetainSegments: -1})
		if err != nil {
			t.Fatal(err)
		}
		appendBatches(l, 1, []int{5})
		closeLog(l)
		l, err = OpenSegmented(SegmentedOptions{Dir: dir, SegmentBytes: 64, RetainSegments: -1})
		if err != nil {
			t.Fatal(err)
		}
		appendBatches(l, 6, sizes)
		if got := l.Stats().Appends; got != 15 {
			t.Errorf("batches %v counted %d appended records, want 15", sizes, got)
		}
		closeLog(l)
		return readTree(t, dir)
	}
	singles := make([]int, 15)
	for i := range singles {
		singles[i] = 1
	}
	want := scenario(singles)
	// The first append after the reopen still lands in the oversize segment,
	// then seals it.
	if _, ok := want["seg-0000000000000007.seg"]; !ok {
		t.Errorf("no segment starts at cursor 7 after the reopen: %d files", len(want))
	}
	for _, sizes := range [][]int{{15}, {5, 10}, {1, 14}} {
		got := scenario(sizes)
		if len(got) != len(want) {
			t.Fatalf("batches %v wrote %d segments, single appends %d", sizes, len(got), len(want))
		}
		for name, w := range want {
			if string(got[name]) != string(w) {
				t.Errorf("batches %v: %s differs from single appends:\n got %x\nwant %x", sizes, name, got[name], w)
			}
		}
	}
}
