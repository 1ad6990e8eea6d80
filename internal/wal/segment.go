package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// segMagic opens every segment file; the trailing byte is the format
// version. The header's uint64 is the cursor of the segment's first record.
var segMagic = []byte("ADBSEG\x00\x01")

// SegmentedLog is an append-only record log spread over rotated segment
// files with a retention policy — the retained-history counterpart of the
// truncate-only Log. Every appended record is assigned a cursor (a dense,
// strictly increasing uint64 starting at 1) that stays valid across
// rotation, retention trimming, and process restarts, so a reader can
// resume from any retained cursor. The serving layer's event stream is its
// first client; delta checkpoints are the intended second.
//
// Layout: a directory of files named <prefix>-<firstCursor:016x>.seg, each
// holding a header (magic + first cursor) followed by CRC-framed records in
// the Log's frame format. The highest-numbered segment is active (appended
// to); when it exceeds SegmentBytes it is sealed and a new one started, and
// the oldest sealed segments beyond RetainSegments are deleted.
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
	next        uint64
	first       uint64
	sealed      []segmentInfo
	closed      bool

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
// cursor: the records were deleted by the retention policy. The caller
// should surface a gap and resume from the reported FirstCursor.
type ErrCursorTrimmed struct {
	// Cursor is the requested position, FirstCursor the oldest retained one.
	Cursor      uint64
	FirstCursor uint64
}

// Error describes the trimmed range.
func (e *ErrCursorTrimmed) Error() string {
	return fmt.Sprintf("wal: cursors %d..%d were trimmed by the retention policy; history starts at %d", e.Cursor, e.FirstCursor-1, e.FirstCursor)
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
	if opts.Dir == "" {
		return nil, errors.New("wal: SegmentedOptions.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create segment dir: %w", err)
	}
	l := &SegmentedLog{dir: opts.Dir, prefix: opts.prefix(), opts: opts}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read segment dir: %w", err)
	}
	var infos []segmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := l.parseSegmentName(e.Name())
		if !ok {
			continue
		}
		infos = append(infos, segmentInfo{path: filepath.Join(opts.Dir, e.Name()), first: first})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].first < infos[j].first })
	if len(infos) == 0 {
		l.first, l.next = 1, 1
		err = l.startSegment()
	} else {
		err = l.adopt(infos)
	}
	if err != nil {
		return nil, err
	}
	if opts.FlushWindow != 0 {
		l.flusher = startSyncLoop(opts.FlushWindow, nil, l.Sync)
	}
	return l, nil
}

// adopt validates the existing segments, oldest first, and reopens the
// newest one as the active segment.
func (l *SegmentedLog) adopt(infos []segmentInfo) error {
	for i := range infos {
		last := i == len(infos)-1
		records, size, err := scanSegment(infos[i].path, infos[i].first, last)
		if err != nil {
			return err
		}
		infos[i].records = records
		infos[i].size = size
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
	f, err := os.OpenFile(tail.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open active segment: %w", err)
	}
	l.active = f
	l.activeFirst = tail.first
	l.activeSize = tail.size
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

// scanSegment validates one segment file and returns its record count and
// effective size. Only the newest segment (tail) may carry a torn final
// record, which is truncated away; in a sealed segment a torn end is
// damage, and damage anywhere is a hard error.
func scanSegment(path string, wantFirst uint64, tail bool) (records uint64, size int64, err error) {
	name := filepath.Base(path)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: read segment: %w", err)
	}
	if len(data) < segHeaderSize {
		if !tail {
			return 0, 0, fmt.Errorf("wal: segment %s is shorter than its header", name)
		}
		// A crash tore the very first write: rewrite the header in place.
		if err := writeSegmentHeader(path, wantFirst); err != nil {
			return 0, 0, err
		}
		return 0, segHeaderSize, nil
	}
	first, ok := decodeHeader(data, segMagic)
	if !ok {
		return 0, 0, fmt.Errorf("wal: %s is not a wal segment (bad magic)", name)
	}
	if first != wantFirst {
		return 0, 0, fmt.Errorf("wal: segment %s header says first cursor %d, file name says %d", name, first, wantFirst)
	}
	n, end, ferr := scanFrames(data[segHeaderSize:], func([]byte) bool {
		records++
		return true
	})
	size = segHeaderSize + n
	switch {
	case end == frameDamage:
		return 0, 0, fmt.Errorf("wal: segment %s record at offset %d: %v: mid-segment corruption", name, size, ferr)
	case end != frameClean && !tail:
		return 0, 0, fmt.Errorf("wal: sealed segment %s holds a torn record at offset %d (%v): mid-history corruption", name, size, ferr)
	case end != frameClean:
		if err := os.Truncate(path, size); err != nil {
			return 0, 0, fmt.Errorf("wal: truncate torn segment tail: %w", err)
		}
	}
	return records, size, nil
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
// cursor l.next. Caller holds l.mu (or the log is unpublished).
func (l *SegmentedLog) startSegment() error {
	path := l.segmentPath(l.next)
	if err := writeSegmentHeader(path, l.next); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	l.active = f
	l.activeFirst = l.next
	l.activeSize = segHeaderSize
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
		if _, err := l.active.WriteAt(frames[:n], l.activeSize); err != nil {
			return first, fmt.Errorf("wal: segment append: %w", err)
		}
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
// sealed segments beyond the retention policy. Caller holds l.mu.
func (l *SegmentedLog) rotateLocked() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.syncs.Add(1)
	path := l.active.Name()
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.sealed = append(l.sealed, segmentInfo{
		path:    path,
		first:   l.activeFirst,
		records: l.next - l.activeFirst,
		size:    l.activeSize,
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

// Sync flushes the active segment to stable storage.
func (l *SegmentedLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: segmented log closed")
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: segment sync: %w", err)
	}
	l.syncs.Add(1)
	return nil
}

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
	type span struct {
		path    string
		first   uint64
		records uint64
		limit   int64 // read no frames past this offset
	}
	var spans []span
	for _, s := range l.sealed {
		spans = append(spans, span{path: s.path, first: s.first, records: s.records, limit: s.size})
	}
	spans = append(spans, span{path: l.active.Name(), first: l.activeFirst, records: l.next - l.activeFirst, limit: l.activeSize})
	l.mu.Unlock()

	var out [][]byte
	for _, s := range spans {
		if cursor >= s.first+s.records {
			continue
		}
		payloads, err := readSegmentRange(s.path, s.first, s.limit, cursor, max-len(out))
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
// segment file whose first record carries cursor first. Frames below limit
// are all whole, so any torn or damaged end there is corruption. The
// returned payloads share one read buffer.
func readSegmentRange(path string, first uint64, limit int64, from uint64, max int) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, limit-segHeaderSize)
	if _, err := f.ReadAt(data, segHeaderSize); err != nil {
		return nil, fmt.Errorf("wal: read segment %s: %w", filepath.Base(path), err)
	}
	cur := first
	var out [][]byte
	n, end, ferr := scanFrames(data, func(payload []byte) bool {
		if len(out) == max {
			return false
		}
		if cur >= from {
			out = append(out, payload)
		}
		cur++
		return true
	})
	if end != frameClean {
		return nil, fmt.Errorf("wal: segment %s record at offset %d: %v: corruption below the read limit", filepath.Base(path), segHeaderSize+n, ferr)
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
	// is closed: stop it before re-locking below.
	flusher.stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	syncErr := l.active.Sync()
	closeErr := l.active.Close()
	if syncErr != nil {
		return fmt.Errorf("wal: close segmented log: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("wal: close segmented log: %w", closeErr)
	}
	return nil
}
