package wal

import (
	"fmt"
	"io"
	"os"

	"annotadb/internal/storage"
)

// logMagic opens every log file; the trailing byte is the format version.
// The header's uint64 is the epoch, which ties a log to the checkpoint
// generation it extends: every checkpoint carries the epoch its successor
// log will be stamped with, so recovery can tell a log that extends the
// checkpoint (equal epochs, replay it) from one the checkpoint already
// covers (older epoch — the artifact of a crash between checkpoint install
// and log truncation — drop it, replaying would double-apply).
var logMagic = []byte("ADBWAL\x00\x02")

// Log is an append-only record log backing one Store. It is not safe for
// concurrent use: the serving layer's single writer is its only client.
type Log struct {
	f     *os.File
	path  string
	size  int64
	epoch uint64
}

// OpenLog opens (or creates) the log file at path. A brand-new or fully
// truncated file gets the magic header stamped with epoch; an existing file
// keeps its stored epoch. A file too short to hold the header is treated as
// a torn first write and reset. Call Replay before appending to position
// the log after recovery.
func OpenLog(path string, epoch uint64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	l := &Log{f: f, path: path}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat log: %w", err)
	}
	l.size = st.Size()
	if l.size < logHeaderSize {
		// Empty file, or a write torn inside the header: start fresh.
		if err := l.reset(epoch); err != nil {
			f.Close()
			return nil, err
		}
		return l, nil
	}
	header := make([]byte, logHeaderSize)
	if _, err := f.ReadAt(header, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: read log header: %w", err)
	}
	stored, ok := decodeHeader(header, logMagic)
	if !ok {
		f.Close()
		return nil, fmt.Errorf("wal: %s is not a wal log (bad magic)", path)
	}
	l.epoch = stored
	return l, nil
}

// Epoch returns the checkpoint generation this log extends.
func (l *Log) Epoch() uint64 { return l.epoch }

// reset truncates the log to just the header, stamped with epoch.
func (l *Log) reset(epoch uint64) error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate log: %w", err)
	}
	if _, err := l.f.WriteAt(encodeHeader(logMagic, epoch), 0); err != nil {
		return fmt.Errorf("wal: write log header: %w", err)
	}
	l.size = logHeaderSize
	l.epoch = epoch
	return nil
}

// ReplayInfo summarizes one Replay pass.
type ReplayInfo struct {
	// Records is the number of intact records replayed.
	Records int
	// TornTail reports that a torn final record (crash artifact) was
	// detected, dropped, and truncated away.
	TornTail bool
}

// Replay reads the log from the start, calling fn for each intact record in
// order. A torn tail (scanFrames) ends the replay and is truncated away so
// appends resume from the last durable record; damage is a hard error
// instead, since truncating there would silently discard durable records.
// fn returning an error aborts the replay with that error. After a
// successful Replay the log is positioned for Append.
func (l *Log) Replay(fn func(Record) error) (ReplayInfo, error) {
	return l.ReplayFrom(logHeaderSize, fn)
}

// ReplayFrom behaves like Replay but starts at byte offset start, which
// must be a frame boundary (recovery uses a checkpoint's CoveredBytes, the
// log size at capture time, which always is). A start at or past the end of
// the log replays nothing. The replayed range is read into memory whole.
func (l *Log) ReplayFrom(start int64, fn func(Record) error) (ReplayInfo, error) {
	var info ReplayInfo
	start = min(max(start, logHeaderSize), l.size)
	data := make([]byte, l.size-start)
	if _, err := l.f.ReadAt(data, start); err != nil {
		return info, fmt.Errorf("wal: replay: %w", err)
	}
	var decodeErr, fnErr error
	n, end, err := scanFrames(data, func(payload []byte) bool {
		rec, derr := decodePayload(payload)
		if decodeErr = derr; derr != nil {
			return false
		}
		if fnErr = fn(rec); fnErr != nil {
			return false
		}
		info.Records++
		return true
	})
	switch {
	case decodeErr != nil:
		// The frame passed its CRC, so this is not a torn write: refuse to
		// guess and surface it.
		return info, fmt.Errorf("wal: replay record %d at offset %d: %w", info.Records, start+n, decodeErr)
	case fnErr != nil:
		return info, fnErr
	case end == frameDamage:
		return info, fmt.Errorf("wal: record %d at offset %d: %v: mid-log corruption, refusing to drop the tail", info.Records, start+n, err)
	case end != frameClean:
		info.TornTail = true
		if err := l.f.Truncate(start + n); err != nil {
			return info, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	l.size = start + n
	return info, nil
}

// Append encodes rec and appends its frame to the log. Durability is the
// caller's concern: pair with Sync according to the store's sync policy.
func (l *Log) Append(rec Record, enc Encoding) (int64, error) {
	payload, err := encodePayload(rec, enc)
	if err != nil {
		return 0, err
	}
	frame, err := appendFrame(nil, payload)
	if err != nil {
		return 0, err
	}
	if _, err := l.f.WriteAt(frame, l.size); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	return int64(len(frame)), nil
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Size returns the current log size in bytes, header included.
func (l *Log) Size() int64 { return l.size }

// Truncate drops every record, leaving just the header re-stamped with
// epoch, and syncs. Called after a checkpoint has been durably installed:
// the dropped records are all covered by it, and the new epoch marks this
// log as the checkpoint's successor.
func (l *Log) Truncate(epoch uint64) error {
	if err := l.reset(epoch); err != nil {
		return err
	}
	return l.Sync()
}

// TruncateKeep drops every record before byte offset keepFrom, re-stamps
// the log with epoch, and keeps the tail [keepFrom, Size()) — the records a
// background-installed checkpoint does not cover because the writer kept
// appending while it was serialized. The rewritten log is installed with
// storage.InstallFile and reopened for appending: a crash mid-truncation
// leaves either the old log (whose covered prefix recovery skips again via
// the checkpoint's CoveredBytes) or the new one, never a state that loses
// tail records.
func (l *Log) TruncateKeep(epoch uint64, keepFrom int64) error {
	keepFrom = max(keepFrom, logHeaderSize)
	if keepFrom >= l.size {
		return l.Truncate(epoch)
	}
	rewritten := make([]byte, logHeaderSize+l.size-keepFrom)
	copy(rewritten, encodeHeader(logMagic, epoch))
	if _, err := l.f.ReadAt(rewritten[logHeaderSize:], keepFrom); err != nil {
		return fmt.Errorf("wal: truncate: read surviving tail: %w", err)
	}
	if err := storage.InstallFile(l.path, func(w io.Writer) error {
		_, err := w.Write(rewritten)
		return err
	}); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	f, err := os.OpenFile(l.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: truncate: reopen rewritten log: %w", err)
	}
	l.f.Close()
	l.f, l.size, l.epoch = f, int64(len(rewritten)), epoch
	return nil
}

// Close syncs and closes the log file.
func (l *Log) Close() error {
	syncErr := l.f.Sync()
	closeErr := l.f.Close()
	if syncErr != nil {
		return fmt.Errorf("wal: close: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("wal: close: %w", closeErr)
	}
	return nil
}
