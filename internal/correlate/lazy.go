package correlate

import (
	"sync"
	"sync/atomic"

	"annotadb/internal/relation"
)

// Lazy is one snapshot generation's slot for the correlate index. A serving
// core's first generation to be queried builds the index cold (Get); from
// then on the core's writer fills each new generation's slot at publish
// (Next) with the previous index extended by whatever tuples the batch
// appended, so later generations are born warm and no query scans the
// relation again. A core that is never queried never builds one, and a core
// created afresh (reopen, follower re-bootstrap) starts cold.
//
// Get may be called from any number of readers; Next only from the single
// goroutine that publishes the lineage's generations in order, once per
// generation — that linearity is what lets Index.Extend append in place.
type Lazy struct {
	idx  atomic.Pointer[Index]
	cold sync.Mutex // serializes cold builds
}

// Get returns the generation's index, building it from view on first use
// if the writer did not carry one forward. built reports whether this call
// performed that full O(N) build — the signal the facade's index-build
// counter wants.
func (l *Lazy) Get(view *relation.View) (idx *Index, built bool) {
	if idx = l.idx.Load(); idx != nil {
		return idx, false
	}
	l.cold.Lock()
	defer l.cold.Unlock()
	if idx = l.idx.Load(); idx != nil {
		return idx, false
	}
	idx = NewIndex(view)
	l.idx.Store(idx)
	return idx, true
}

// Next returns the slot for view, the generation published after l's. If
// l's index is present it is carried forward (Index.Extend); if it is not —
// never queried, or a reader's cold build is still in flight, which Next
// does not wait for — the new generation starts cold too. The new slot
// holds no reference to l.
func (l *Lazy) Next(view *relation.View) *Lazy {
	next := new(Lazy)
	if idx := l.idx.Load(); idx != nil {
		next.idx.Store(idx.Extend(view))
	}
	return next
}
