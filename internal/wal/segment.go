package wal

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"annotadb/internal/storage"
)

// segMagic opens every segment file; the trailing byte is the format
// version. The header's uint64 is the cursor of the segment's first record.
var segMagic = []byte("ADBSEG\x00\x01")

// SegmentedLog is an append-only record log spread over rotated segment
// files. Every appended record is assigned a cursor (a dense, strictly
// increasing uint64) that stays valid across rotation, trimming, and
// process restarts, so a reader can resume from any retained cursor. It is
// the package's one log type: the Store's write-ahead log (every segment
// retained until a checkpoint covers it, see TrimBelow) and the serving
// layer's event stream (a retention policy) are both one of these.
//
// Layout: a directory of files named <prefix>-<firstCursor:016x>.seg, each
// holding a header (magic + first cursor) followed by CRC-framed records.
// The highest-numbered segment is active (appended to); when it exceeds
// SegmentBytes it is sealed and a new one started, and the oldest sealed
// segments beyond RetainSegments are deleted.
//
// Appends and reads are safe for concurrent use: one writer may append
// while any number of readers page through ReadFrom.
type SegmentedLog struct {
	dir    string
	prefix string
	opts   SegmentedOptions

	mu     sync.Mutex
	active *os.File
	// activeFirst is the cursor of the active segment's first record;
	// activeSize its current byte size; next the cursor the next append
	// gets; first the oldest retained cursor (1 when nothing was trimmed).
	activeFirst uint64
	activeSize  int64
	activeMarks []mark
	next        uint64
	first       uint64
	sealed      []segmentInfo
	closed      bool
	// tornTail reports that open dropped a torn final record.
	tornTail bool

	appends      atomic.Uint64
	rotations    atomic.Uint64
	rotatedBytes atomic.Int64
	trims        atomic.Uint64
	trimmedBytes atomic.Int64
	syncs        atomic.Uint64

	// flusher is the background fsync loop (FlushWindow != 0): Append
	// pokes it and it syncs the active segment within the window. Nil when
	// off, and from Close on.
	flusher *syncLoop
}

// segmentInfo describes one sealed (immutable) segment.
type segmentInfo struct {
	path    string
	first   uint64 // cursor of the first record
	records uint64 // record count
	size    int64  // file size, header included
	marks   []mark
}

// readStride spaces a segment's marks. A read starts at the last mark at or
// below its first cursor and stops at the first mark past the records it
// wants, so it reads at most about two strides beyond them wherever they lie
// in the segment: a caught-up reader polling the active segment does not
// re-read its whole prefix.
const readStride = 64 << 10

// mark is a frame boundary of a segment: the record with cursor starts at
// byte offset off (header included). Every segment's marks open with its
// first record at segHeaderSize and then follow one per readStride bytes.
type mark struct {
	cursor uint64
	off    int64
}

// markFrames extends marks over the whole frames in b, the first of which
// carries cursor c and starts at segment offset off.
func markFrames(marks []mark, b []byte, c uint64, off int64) []mark {
	if off+int64(len(b)) <= marks[len(marks)-1].off+readStride {
		return marks // no frame in b starts a stride past the last mark
	}
	for len(b) > 0 {
		if off >= marks[len(marks)-1].off+readStride {
			marks = append(marks, mark{cursor: c, off: off})
		}
		n := frameSize(b)
		b, off, c = b[n:], off+n, c+1
	}
	return marks
}

// window returns the byte range [from, to) of a segment holding the records
// cursor .. cursor+n-1, widened out to the nearest marks (or to limit, the
// end of its whole frames), and the cursor of the record at from.
func window(marks []mark, limit int64, cursor uint64, n int) (startCursor uint64, from, to int64) {
	i := sort.Search(len(marks), func(i int) bool { return marks[i].cursor > cursor }) - 1
	end := cursor + uint64(n)
	j := sort.Search(len(marks), func(i int) bool { return marks[i].cursor >= end })
	to = limit
	if j < len(marks) && end > cursor {
		to = min(marks[j].off, limit)
	}
	return marks[i].cursor, marks[i].off, to
}

// SegmentedOptions tune a SegmentedLog.
type SegmentedOptions struct {
	// Dir is the segment directory. Created if absent. Required.
	Dir string
	// Prefix names the segment files (<prefix>-<cursor>.seg). Empty means
	// "seg".
	Prefix string
	// SegmentBytes seals the active segment once it reaches this size and
	// starts a new one. Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// RetainSegments is how many sealed segments are kept after a rotation;
	// older ones are deleted (their cursors become unreadable — readers
	// positioned before the trim point observe a gap). Zero means
	// DefaultRetainSegments; negative retains everything.
	RetainSegments int
	// FlushWindow bounds how long an appended record may sit in the active
	// segment before a background fsync covers it: a flusher goroutine
	// wakes on the first append after a sync, lingers up to the window so
	// one fsync covers a burst, then syncs. Zero disables the flusher (the
	// default: the active tail is only fsynced at rotation, explicit Sync,
	// and Close, so a crash may drop it); negative flushes with no linger.
	// A failed background fsync is not latched: the tail was never promised
	// durable mid-segment, and rotation or Close retries the fsync and
	// surfaces a persistent error.
	FlushWindow time.Duration
}

// Default tuning values; see SegmentedOptions.
const (
	DefaultSegmentBytes   = 1 << 20
	DefaultRetainSegments = 8
)

func (o SegmentedOptions) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

func (o SegmentedOptions) retainSegments() int {
	if o.RetainSegments == 0 {
		return DefaultRetainSegments
	}
	return o.RetainSegments
}

func (o SegmentedOptions) prefix() string {
	if o.Prefix == "" {
		return "seg"
	}
	return o.Prefix
}

// SegmentedStats reports a SegmentedLog's activity and retained footprint.
type SegmentedStats struct {
	// Segments is the retained segment count (sealed + active); FirstCursor
	// and NextCursor bound the retained history: [FirstCursor, NextCursor).
	Segments    int    `json:"segments"`
	FirstCursor uint64 `json:"first_cursor"`
	NextCursor  uint64 `json:"next_cursor"`
	// RetainedBytes is the byte size of every retained segment.
	RetainedBytes int64 `json:"retained_bytes"`
	// Appends counts records appended since open; Syncs explicit fsyncs.
	Appends uint64 `json:"appends"`
	Syncs   uint64 `json:"syncs"`
	// Rotations counts sealed segments and RotatedBytes their total size at
	// sealing time (both lifetime-since-open).
	Rotations    uint64 `json:"rotations"`
	RotatedBytes int64  `json:"rotated_bytes"`
	// RetentionTrims counts segments deleted by the retention policy since
	// open, TrimmedBytes their total size.
	RetentionTrims uint64 `json:"retention_trims"`
	TrimmedBytes   int64  `json:"trimmed_bytes"`
}

// ErrCursorTrimmed reports a read positioned before the oldest retained
// cursor: the records were deleted by the retention policy or by TrimBelow.
// The caller should surface a gap and resume from the reported FirstCursor,
// or, when it needs every record, start over from a checkpoint.
type ErrCursorTrimmed struct {
	// Cursor is the requested position, FirstCursor the oldest retained one.
	Cursor      uint64
	FirstCursor uint64
}

// Error describes the trimmed range.
func (e *ErrCursorTrimmed) Error() string {
	return fmt.Sprintf("wal: cursors %d..%d were trimmed; history starts at %d", e.Cursor, e.FirstCursor-1, e.FirstCursor)
}

// Resume returns the oldest retained cursor — where a reader that hit this
// error should continue after surfacing the gap. (The stream package's
// broker detects trimmed reads through this method rather than the concrete
// type, keeping the packages decoupled.)
func (e *ErrCursorTrimmed) Resume() uint64 { return e.FirstCursor }

// OpenSegmented opens (or creates) the segmented log in opts.Dir. Existing
// segments are validated (magic, frame CRCs, cursor contiguity); a torn
// final record in the newest segment — the crash artifact — is dropped and
// truncated away, while damage anywhere else is a hard error. The newest
// segment becomes the active one regardless of size; the next append may
// immediately seal it.
func OpenSegmented(opts SegmentedOptions) (*SegmentedLog, error) {
	return OpenSegmentedFrom(opts, 1)
}

// OpenSegmentedFrom is OpenSegmented for a client that needs no record
// below floor, such as a store whose checkpoint covers them. It first
// deletes the segments whose records all lie below floor — known from the
// names alone, since a segment ends where the next one starts — so a trim
// that a crash interrupted, or whose deletions reached the disk out of
// order, is finished before the rest is validated. It then runs
// TrimBelow(floor), which raises the next cursor to floor when the
// surviving log ends below it.
func OpenSegmentedFrom(opts SegmentedOptions, floor uint64) (*SegmentedLog, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: SegmentedOptions.Dir is required")
	}
	l := &SegmentedLog{dir: opts.Dir, prefix: opts.prefix(), opts: opts}
	names, err := readDirNames(opts.Dir)
	if os.IsNotExist(err) {
		err = os.MkdirAll(opts.Dir, 0o755)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open segment dir: %w", err)
	}
	var infos []segmentInfo
	for _, name := range names {
		first, ok := l.parseSegmentName(name)
		if !ok {
			continue
		}
		infos = append(infos, segmentInfo{path: filepath.Join(opts.Dir, name), first: first})
	}
	slices.SortFunc(infos, func(a, b segmentInfo) int { return cmp.Compare(a.first, b.first) })
	for len(infos) > 1 && infos[1].first <= floor {
		if err := os.Remove(infos[0].path); err != nil {
			return nil, fmt.Errorf("wal: trim segment below cursor %d: %w", floor, err)
		}
		infos = infos[1:]
	}
	if len(infos) == 0 {
		l.first, l.next = 1, 1
		err = l.startSegment()
	} else {
		err = l.adopt(infos)
	}
	if err == nil {
		err = l.TrimBelow(floor)
	}
	if err != nil {
		if l.active != nil {
			l.active.Close()
		}
		return nil, err
	}
	if opts.FlushWindow != 0 {
		l.flusher = startSyncLoop(opts.FlushWindow, nil, l.Sync)
	}
	return l, nil
}

// readDirNames lists the names in dir, unsorted.
func readDirNames(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Readdirnames(-1)
}

// adopt validates the existing segments, oldest first, and reopens the
// newest one as the active segment.
func (l *SegmentedLog) adopt(infos []segmentInfo) error {
	for i := range infos {
		last := i == len(infos)-1
		flag := os.O_RDONLY
		if last {
			flag = os.O_RDWR
		}
		f, err := os.OpenFile(infos[i].path, flag, 0)
		if err != nil {
			return fmt.Errorf("wal: open segment: %w", err)
		}
		records, size, marks, torn, err := scanSegment(f, infos[i].first, last)
		if err != nil || !last {
			f.Close()
		}
		if err != nil {
			return err
		}
		if last {
			l.active = f
		}
		l.tornTail = l.tornTail || torn
		infos[i].records = records
		infos[i].size = size
		infos[i].marks = marks
		if !last && infos[i+1].first != infos[i].first+records {
			return fmt.Errorf("wal: segment %s holds cursors %d..%d but %s starts at %d: retained history is not contiguous",
				filepath.Base(infos[i].path), infos[i].first, infos[i].first+records-1,
				filepath.Base(infos[i+1].path), infos[i+1].first)
		}
	}
	l.first = infos[0].first
	tail := infos[len(infos)-1]
	l.sealed = infos[:len(infos)-1]
	l.next = tail.first + tail.records
	l.activeFirst = tail.first
	l.activeSize = tail.size
	l.activeMarks = tail.marks
	return nil
}

// parseSegmentName extracts the first-record cursor from a segment file
// name, reporting whether the name belongs to this log.
func (l *SegmentedLog) parseSegmentName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, l.prefix+"-")
	if !ok {
		return 0, false
	}
	hex, ok := strings.CutSuffix(rest, ".seg")
	if !ok || len(hex) != 16 {
		return 0, false
	}
	first, err := strconv.ParseUint(hex, 16, 64)
	if err != nil || first == 0 {
		return 0, false
	}
	return first, true
}

func (l *SegmentedLog) segmentPath(first uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s-%016x.seg", l.prefix, first))
}

// scanSegment validates one segment file and returns its record count,
// effective size and marks. Only the newest segment (tail) may carry a torn
// final record, which is truncated away (torn reports it); in a sealed
// segment a torn end is damage, and damage anywhere is a hard error.
func scanSegment(f *os.File, wantFirst uint64, tail bool) (records uint64, size int64, marks []mark, torn bool, err error) {
	name := filepath.Base(f.Name())
	st, err := f.Stat()
	if err != nil {
		return 0, 0, nil, false, fmt.Errorf("wal: stat segment: %w", err)
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		return 0, 0, nil, false, fmt.Errorf("wal: read segment: %w", err)
	}
	marks = []mark{{cursor: wantFirst, off: segHeaderSize}}
	if len(data) < segHeaderSize {
		if !tail {
			return 0, 0, nil, false, fmt.Errorf("wal: segment %s is shorter than its header", name)
		}
		// A crash tore the very first write: rewrite the header in place.
		if err := writeSegmentHeader(f.Name(), wantFirst); err != nil {
			return 0, 0, nil, false, err
		}
		return 0, segHeaderSize, marks, false, nil
	}
	first, ok := decodeHeader(data, segMagic)
	if !ok {
		return 0, 0, nil, false, fmt.Errorf("wal: %s is not a wal segment (bad magic)", name)
	}
	if first != wantFirst {
		return 0, 0, nil, false, fmt.Errorf("wal: segment %s header says first cursor %d, file name says %d", name, first, wantFirst)
	}
	n, end, ferr := scanFrames(data[segHeaderSize:], func([]byte) bool {
		records++
		return true
	})
	size = segHeaderSize + n
	switch {
	case end == frameDamage:
		return 0, 0, nil, false, fmt.Errorf("wal: segment %s record at offset %d: %v: mid-segment corruption", name, size, ferr)
	case end != frameClean && !tail:
		return 0, 0, nil, false, fmt.Errorf("wal: sealed segment %s holds a torn record at offset %d (%v): mid-history corruption", name, size, ferr)
	case end != frameClean:
		if err := f.Truncate(size); err != nil {
			return 0, 0, nil, false, fmt.Errorf("wal: truncate torn segment tail: %w", err)
		}
		torn = true
	}
	return records, size, markFrames(marks, data[segHeaderSize:size], wantFirst, segHeaderSize), torn, nil
}

func writeSegmentHeader(path string, first uint64) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset segment: %w", err)
	}
	if _, err := f.WriteAt(encodeHeader(segMagic, first), 0); err != nil {
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	return nil
}

// startSegment opens a fresh active segment whose first record will carry
// cursor l.next, and fsyncs the directory so the new file's entry — and
// with it every record a later Sync makes durable — survives a power loss.
// Caller holds l.mu (or the log is unpublished).
func (l *SegmentedLog) startSegment() error {
	path := l.segmentPath(l.next)
	if err := writeSegmentHeader(path, l.next); err != nil {
		return err
	}
	if err := storage.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: new segment: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	l.active = f
	l.activeFirst = l.next
	l.activeSize = segHeaderSize
	l.activeMarks = make([]mark, 1, l.opts.segmentBytes()/readStride+1)
	l.activeMarks[0] = mark{cursor: l.next, off: segHeaderSize}
	return nil
}

// Append frames payloads, appends them to the active segment, and returns
// the cursor assigned to the first; the rest follow densely. The frames go
// out in one write unless they reach SegmentBytes: the segment is then
// sealed right after the frame that reached it (fsynced, so retained
// history is durable once sealed), the retention policy runs, and the rest
// continue in a new segment, exactly where record-by-record appends would
// have rotated. Durability of the active tail is the caller's concern: pair
// with Sync, or accept that a crash may drop the newest records (a torn tail
// is truncated at reopen).
func (l *SegmentedLog) Append(payloads ...[]byte) (uint64, error) {
	size := 0
	for _, p := range payloads {
		size += frameHeaderSize + len(p)
	}
	frames := make([]byte, 0, size)
	for _, p := range payloads {
		var err error
		if frames, err = appendFrame(frames, p); err != nil {
			return 0, err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: segmented log closed")
	}
	first := l.next
	limit := l.opts.segmentBytes()
	for len(frames) > 0 {
		var n int64
		var records uint64
		for n < int64(len(frames)) {
			n += frameSize(frames[n:])
			records++
			if l.activeSize+n >= limit {
				break
			}
		}
		//annotlint:ignore lockio mu orders appends and assigns their cursors; this is a page-cache write, and the fsync that makes it durable runs outside mu (Sync)
		if _, err := l.active.WriteAt(frames[:n], l.activeSize); err != nil {
			return first, fmt.Errorf("wal: segment append: %w", err)
		}
		l.activeMarks = markFrames(l.activeMarks, frames[:n], l.next, l.activeSize)
		frames = frames[n:]
		l.activeSize += n
		l.next += records
		l.appends.Add(records)
		if l.activeSize >= limit {
			if err := l.rotateLocked(); err != nil {
				return first, err
			}
		}
	}
	if l.flusher != nil && l.next > l.activeFirst {
		l.flusher.poke()
	}
	return first, nil
}

// rotateLocked seals the active segment and starts a new one, then trims
// sealed segments beyond the retention policy. Caller holds l.mu, so
// appends wait out the seal's fsync and the new segment's directory fsync:
// once per SegmentBytes, the price of a sealed segment being durable before
// any record lands in the next.
func (l *SegmentedLog) rotateLocked() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.syncs.Add(1)
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.sealed = append(l.sealed, segmentInfo{
		path:    l.segmentPath(l.activeFirst),
		first:   l.activeFirst,
		records: l.next - l.activeFirst,
		size:    l.activeSize,
		marks:   l.activeMarks,
	})
	l.rotations.Add(1)
	l.rotatedBytes.Add(l.activeSize)
	if err := l.startSegment(); err != nil {
		return err
	}
	if retain := l.opts.retainSegments(); retain >= 0 {
		for len(l.sealed) > retain {
			victim := l.sealed[0]
			if err := os.Remove(victim.path); err != nil {
				return fmt.Errorf("wal: retention trim: %w", err)
			}
			l.sealed = l.sealed[1:]
			l.first = victim.first + victim.records
			l.trims.Add(1)
			l.trimmedBytes.Add(victim.size)
		}
	}
	return nil
}

// Sync flushes every record appended before the call to stable storage.
// The fsync runs outside the append mutex, so appends continue while it is
// in flight (group commit depends on that). It is ordered against a
// rotation by the active file itself: a segment is closed only after an
// fsync (rotateLocked, Close) or once a checkpoint covers every record in
// it (TrimBelow), so an fsync that finds its file closed has nothing left
// to do. Go's file handle defers the close until an fsync already in flight
// returns, so the fsync never targets a reused descriptor.
func (l *SegmentedLog) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("wal: segmented log closed")
	}
	f := l.active
	l.mu.Unlock()
	if err := f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
		return fmt.Errorf("wal: segment sync: %w", err)
	}
	l.syncs.Add(1)
	return nil
}

// TrimBelow deletes the segments whose records all lie below cursor — the
// Store calls it once a checkpoint covering them is installed. The active
// segment is replaced by a new empty one when every record in it lies below
// cursor, so a checkpoint that covers the whole log leaves one empty
// segment. A cursor past the end raises the next cursor to it: the records
// between were lost with an unsynced tail but are covered, and reusing
// their cursors would make the next open skip new records as covered.
func (l *SegmentedLog) TrimBelow(cursor uint64) error {
	var prev *os.File // the replaced active segment, closed once mu is free
	defer func() {
		if prev != nil {
			prev.Close() // every record in it is covered; it is deleted below
		}
	}()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: segmented log closed")
	}
	if l.activeFirst < cursor && l.next <= cursor {
		old := segmentInfo{path: l.segmentPath(l.activeFirst), first: l.activeFirst, records: l.next - l.activeFirst, size: l.activeSize, marks: l.activeMarks}
		l.next = cursor
		active := l.active
		if err := l.startSegment(); err != nil {
			// Keep the old segment active and drop the new file, which
			// would otherwise break the chain of first cursors. The Store
			// latches on this error, so no record follows; should the
			// removal fail too, the next open deletes the old, wholly
			// covered segment as it finishes the trim.
			_ = os.Remove(l.segmentPath(cursor))
			l.next = old.first + old.records
			return err
		}
		prev = active
		l.sealed = append(l.sealed, old)
	}
	for len(l.sealed) > 0 && l.sealed[0].first+l.sealed[0].records <= cursor {
		victim := l.sealed[0]
		if err := os.Remove(victim.path); err != nil {
			return fmt.Errorf("wal: trim below cursor %d: %w", cursor, err)
		}
		l.sealed = l.sealed[1:]
		l.trims.Add(1)
		l.trimmedBytes.Add(victim.size)
	}
	l.first = l.activeFirst
	if len(l.sealed) > 0 {
		l.first = l.sealed[0].first
	}
	return nil
}

// TornTail reports whether open dropped a torn final record from the
// newest segment.
func (l *SegmentedLog) TornTail() bool { return l.tornTail }

// FirstCursor returns the oldest retained cursor. Equal to NextCursor when
// the log holds no records.
func (l *SegmentedLog) FirstCursor() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first
}

// NextCursor returns the cursor the next appended record will get.
func (l *SegmentedLog) NextCursor() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// ReadFrom returns up to max record payloads starting at cursor, in cursor
// order, plus the cursor of the first returned record (== cursor on
// success). A cursor before the oldest retained record returns
// *ErrCursorTrimmed carrying the resume point; a cursor at or past the end
// returns an empty slice. Readers run concurrently with Append — and stay
// valid after Close (reads open segment files by path, never through the
// sealed write handle), so subscribers can finish draining history after
// the writer has shut down.
func (l *SegmentedLog) ReadFrom(cursor uint64, max int) ([][]byte, error) {
	if max <= 0 {
		max = 256
	}
	l.mu.Lock()
	if cursor < l.first {
		first := l.first
		l.mu.Unlock()
		return nil, &ErrCursorTrimmed{Cursor: cursor, FirstCursor: first}
	}
	if cursor >= l.next {
		l.mu.Unlock()
		return nil, nil
	}
	// Snapshot the segment layout; the files themselves are immutable once
	// sealed, and the active file is only ever appended to beyond the
	// snapshotted size, so reading outside the lock is safe. A retention
	// trim racing this read can only delete segments we re-check below.
	// Append extends the active marks in place, past the snapshotted length
	// only, so the snapshot stays valid.
	i := sort.Search(len(l.sealed), func(i int) bool { return l.sealed[i].first+l.sealed[i].records > cursor })
	spans := append([]segmentInfo(nil), l.sealed[i:]...)
	spans = append(spans, segmentInfo{first: l.activeFirst, records: l.next - l.activeFirst, size: l.activeSize, marks: l.activeMarks})
	l.mu.Unlock()
	spans[len(spans)-1].path = l.segmentPath(spans[len(spans)-1].first)

	var out [][]byte
	for _, s := range spans {
		if cursor >= s.first+s.records {
			continue
		}
		payloads, err := readSegmentRange(s, cursor, max-len(out))
		if err != nil {
			if os.IsNotExist(err) {
				// Trimmed while we read: report the gap with a fresh floor.
				return nil, &ErrCursorTrimmed{Cursor: cursor, FirstCursor: l.FirstCursor()}
			}
			return nil, err
		}
		out = append(out, payloads...)
		cursor += uint64(len(payloads))
		if len(out) >= max {
			break
		}
	}
	return out, nil
}

// readSegmentRange reads payloads for cursors [from, from+max) out of one
// segment, reading only the window its marks give. Frames below the
// segment's size are all whole, so any torn or damaged end there is
// corruption. The returned payloads share one read buffer.
func readSegmentRange(seg segmentInfo, from uint64, max int) ([][]byte, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cur, start, end := window(seg.marks, seg.size, from, max)
	data := make([]byte, end-start)
	if _, err := f.ReadAt(data, start); err != nil {
		return nil, fmt.Errorf("wal: read segment %s: %w", filepath.Base(seg.path), err)
	}
	var out [][]byte
	n, frames, ferr := scanFrames(data, func(payload []byte) bool {
		if len(out) == max {
			return false
		}
		if cur >= from {
			out = append(out, payload)
		}
		cur++
		return true
	})
	if frames != frameClean {
		return nil, fmt.Errorf("wal: segment %s record at offset %d: %v: corruption below the read limit", filepath.Base(seg.path), start+n, ferr)
	}
	return out, nil
}

// Stats returns current counters and the retained footprint. Safe from any
// goroutine.
func (l *SegmentedLog) Stats() SegmentedStats {
	l.mu.Lock()
	segments := len(l.sealed) + 1
	first, next := l.first, l.next
	retained := l.activeSize
	for _, s := range l.sealed {
		retained += s.size
	}
	l.mu.Unlock()
	return SegmentedStats{
		Segments:       segments,
		FirstCursor:    first,
		NextCursor:     next,
		RetainedBytes:  retained,
		Appends:        l.appends.Load(),
		Syncs:          l.syncs.Load(),
		Rotations:      l.rotations.Load(),
		RotatedBytes:   l.rotatedBytes.Load(),
		RetentionTrims: l.trims.Load(),
		TrimmedBytes:   l.trimmedBytes.Load(),
	}
}

// Close syncs and closes the active segment. The log is unusable afterwards;
// reopen with OpenSegmented. Idempotent.
func (l *SegmentedLog) Close() error {
	l.mu.Lock()
	flusher := l.flusher
	l.flusher = nil
	l.mu.Unlock()
	// The flusher syncs through Sync, which takes mu and fails once the log
	// is closed: stop it before closing below.
	flusher.stop()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	f := l.active
	l.mu.Unlock()
	// Closed, the log takes no more appends, so the final fsync runs outside
	// mu; an in-flight Sync that finds the file closed has nothing to do.
	syncErr := f.Sync()
	closeErr := f.Close()
	if syncErr != nil {
		return fmt.Errorf("wal: close segmented log: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("wal: close segmented log: %w", closeErr)
	}
	return nil
}
