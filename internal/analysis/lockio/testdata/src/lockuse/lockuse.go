// Package lockuse exercises the lockio analyzer: blocking I/O and channel
// sends under a hot lock, and Lock without Unlock on a return path.
package lockuse

import (
	"os"
	"sync"
)

// Log is a WAL-like appender whose Sync is configured as blocking I/O.
type Log struct{}

// Sync fsyncs the log.
func (l *Log) Sync() error { return nil }

// InstallFile is a package-level blocking call: a durable
// temp-file-and-rename install.
func InstallFile(path string) error { return nil }

// Store owns the hot lock mu.
type Store struct {
	mu   sync.Mutex
	log  Log
	file *os.File
	acks chan int
	n    int
}

// SyncUnderLock mirrors the fsync-under-the-hot-lock bug shape: every
// other writer queues on mu for the duration of the disk flush.
func (s *Store) SyncUnderLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Sync() // want `call to lockuse.Log.Sync while s.mu is held`
}

// WriteFileUnderLock trips the os.File wildcard.
func (s *Store) WriteFileUnderLock(b []byte) {
	s.mu.Lock()
	s.file.Write(b) // want `call to os.File.Write while s.mu is held`
	s.mu.Unlock()
}

// InstallUnderLock trips a package-level function key: every mu waiter
// queues behind two fsyncs and a rename.
func (s *Store) InstallUnderLock(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return InstallFile(path) // want `call to lockuse.InstallFile while s.mu is held`
}

// SendUnderLock blocks every mu waiter behind a slow receiver.
func (s *Store) SendUnderLock(v int) {
	s.mu.Lock()
	s.acks <- v // want `channel send while s.mu is held`
	s.mu.Unlock()
}

// SelectSendUnderLock is the select-statement form of the same bug.
func (s *Store) SelectSendUnderLock(v int) {
	s.mu.Lock()
	select {
	case s.acks <- v: // want `channel send while s.mu is held`
	default:
	}
	s.mu.Unlock()
}

// LeakOnReturn forgets the unlock on the early-return path.
func (s *Store) LeakOnReturn(cond bool) int {
	s.mu.Lock()
	if cond {
		return 0 // want `return while s.mu is held`
	}
	s.mu.Unlock()
	return 1
}

// LeakOnFallThrough never unlocks at all.
func (s *Store) LeakOnFallThrough() {
	s.mu.Lock() // want `s.mu.Lock\(\) is not released on the fall-through return path`
	s.n++
}

// Balanced is the clean shape: the I/O happens after the release.
func (s *Store) Balanced() error {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	return s.log.Sync()
}

// BranchRelease unlocks on both arms; the merge sees the lock released.
func (s *Store) BranchRelease(cond bool) error {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
	} else {
		s.n++
		s.mu.Unlock()
	}
	return s.log.Sync()
}

// SpawnUnderLock is clean: the goroutine body runs after the spawner's
// critical section, not inside it.
func (s *Store) SpawnUnderLock() {
	s.mu.Lock()
	go func() {
		s.log.Sync()
	}()
	s.mu.Unlock()
}

// DeferredOnly relies entirely on defer; no finding.
func (s *Store) DeferredOnly() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n
}

// SealedSync is the sanctioned exception, mirroring the WAL's syncLog: the
// fsync must be ordered against a file-handle swap under the same lock.
// The suppression must keep working or this file stops matching its golden
// expectations.
func (s *Store) SealedSync() error {
	s.mu.Lock()
	//annotlint:ignore lockio fsync must hold mu to order against the handle swap; only one fsync is ever in flight
	err := s.log.Sync()
	s.mu.Unlock()
	return err
}
