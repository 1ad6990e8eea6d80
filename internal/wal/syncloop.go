package wal

import "time"

// syncLoop is the one background fsync goroutine of this package: the
// Store's group committer, the Store's SyncInterval flusher and the
// SegmentedLog's flusher are each one of these. A wake — a poke or a
// ticket — opens a group; the loop lingers up to window for more wakes
// (cut short once full reports true), issues one sync, and resolves every
// ticket of the group with its result. Wakes that arrive while a sync is in
// flight open the next group, so one sync covers everything that queued
// behind the previous one — that overlap, more than the linger, is where
// group commit's throughput comes from.
type syncLoop struct {
	window time.Duration
	full   func() bool // nil: a linger runs its whole window
	sync   func() error
	wake   chan struct{}
	// tickets is buffered so that the serving writer, which seals once per
	// batch and keeps applying batches while a sync runs, does not block
	// on Seal behind a slow fsync; 256 batches is far more than queue
	// behind one sync.
	tickets chan chan error
	quit    chan struct{}
	done    chan struct{}
}

// startSyncLoop starts the goroutine. A window ≤ 0 syncs as soon as the
// loop is free.
func startSyncLoop(window time.Duration, full func() bool, sync func() error) *syncLoop {
	l := &syncLoop{
		window:  window,
		full:    full,
		sync:    sync,
		wake:    make(chan struct{}, 1),
		tickets: make(chan chan error, 256),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go l.run()
	return l
}

// poke asks for a sync without waiting for it. It never blocks: a poke
// already pending covers this one.
func (l *syncLoop) poke() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// ticket asks for a sync and returns a channel that receives the result of
// the first sync issued after the call.
func (l *syncLoop) ticket() <-chan error {
	t := make(chan error, 1)
	l.tickets <- t
	return t
}

// stop ends the loop and waits for it; a nil loop is a no-op. Tickets still
// queued are resolved with one final sync, so a caller that tears down in
// the wrong order gets an answer instead of a deadlock. A pending poke is
// dropped: its owner syncs on close.
func (l *syncLoop) stop() {
	if l == nil {
		return
	}
	close(l.quit)
	<-l.done
}

func (l *syncLoop) run() {
	defer close(l.done)
	var group []chan error // reused, so a steady stream of groups does not allocate
	for {
		group = group[:0]
		select {
		case <-l.quit:
			if group = l.absorb(group); len(group) > 0 {
				l.flush(group)
			}
			return
		case <-l.wake:
		case t := <-l.tickets:
			group = append(group, t)
		}
		if l.window > 0 && !l.cut() {
			group = l.linger(group)
		}
		group = l.absorb(group)
		l.flush(group)
	}
}

// cut reports whether a linger should end early.
func (l *syncLoop) cut() bool { return l.full != nil && l.full() }

// linger collects wakes for up to the window, ending early on cut or stop.
func (l *syncLoop) linger(group []chan error) []chan error {
	timer := time.NewTimer(l.window)
	defer timer.Stop()
	for {
		select {
		case t := <-l.tickets:
			group = append(group, t)
		case <-l.wake:
		case <-timer.C:
			return group
		case <-l.quit:
			return group
		}
		if l.cut() {
			return group
		}
	}
}

// absorb adds whatever wakes are already queued, without waiting: the sync
// about to start covers them too.
func (l *syncLoop) absorb(group []chan error) []chan error {
	for {
		select {
		case t := <-l.tickets:
			group = append(group, t)
		case <-l.wake:
		default:
			return group
		}
	}
}

// flush issues one sync and resolves the group's tickets with its result.
func (l *syncLoop) flush(group []chan error) {
	err := l.sync()
	for _, t := range group {
		t <- err
	}
}
