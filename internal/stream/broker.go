package stream

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Default tuning values; see Options and SubscribeOptions.
const (
	// DefaultRing is the in-memory ring capacity in events.
	DefaultRing = 1024
	// DefaultBuffer is a subscription's channel buffer.
	DefaultBuffer = 64
	// fetchBatch bounds how many events one pump iteration moves.
	fetchBatch = 256
)

// ErrClosed is returned by Publish and Subscribe after Close.
var ErrClosed = errors.New("stream: broker closed")

// Log is the durable, cursor-addressed record log a Broker retains events
// in beyond its ring — implemented by the wal package's SegmentedLog (the
// broker depends on the shape, not the package, so the wal tests can keep
// exercising the serving layer without an import cycle). Cursors are dense
// and strictly increasing from 1; ReadFrom returns payloads for cursors
// [cursor, cursor+max), and a position the retention policy trimmed away
// reports an error whose Resume method names the oldest retained cursor.
// Append writes a batch of records and returns the cursor of the first; the
// rest follow densely.
type Log interface {
	Append(payloads ...[]byte) (uint64, error)
	ReadFrom(cursor uint64, max int) ([][]byte, error)
	FirstCursor() uint64
	NextCursor() uint64
	Close() error
}

// Options configure a Broker.
type Options struct {
	// Ring is the in-memory event ring capacity (0 = DefaultRing). Events
	// older than the ring are answered from Log when present, and are a gap
	// otherwise.
	Ring int
	// Log, when non-nil, durably retains events beyond the ring in rotated
	// segments, so cursors survive a restart. The broker owns it: Close
	// closes it.
	Log Log
	// Shards stamps events with a merged per-shard seq vector when > 1.
	Shards int
}

func (o Options) ring() int {
	if o.Ring <= 0 {
		return DefaultRing
	}
	return o.Ring
}

// Broker is the churn-event hub: serving writers append diffed events
// through Publish (one per shard, serialized by the broker's lock — the
// deterministic merge point of sharded streams), and any number of
// subscribers consume them at their own pace. Publish never blocks on a
// subscriber: each subscription is driven by its own pump goroutine that
// reads the ring (or the segment log) by cursor and emits a gap event when
// its position fell out of retained history.
type Broker struct {
	opts Options

	mu     sync.Mutex
	ring   []Event // ring[(first+i) % cap] holds cursor ringFirst+i
	ringN  int     // events currently in the ring
	head   int     // ring index of the oldest buffered event
	first  uint64  // cursor of ring[head] (oldest in memory)
	next   uint64  // next cursor to assign
	oldest uint64  // oldest retained cursor anywhere (log or ring)
	vec    []uint64
	wake   chan struct{}
	closed bool
	// logDead latches when a segment-log append failed or assigned a
	// position out of step with the broker's cursors. The log addresses
	// records by position, so one skipped append would silently shift every
	// later record's cursor at replay time; a dead log keeps its intact
	// prefix readable and is never appended to again (LogErrors counts the
	// events that lost durable coverage).
	logDead bool
	// logTail serializes segment-log appends in cursor order without
	// holding mu across file I/O: each publisher takes a FIFO ticket under
	// mu (the predecessor's done channel) and a fresh done channel of its
	// own, then waits and appends outside the lock. Stamp order and append
	// order therefore agree — the invariant position-addressed replay
	// depends on — while subscriber fetches never queue behind the disk.
	logTail chan struct{}

	published   atomic.Uint64
	logErrors   atomic.Uint64
	subscribers atomic.Int64
	gaps        atomic.Uint64
	perShard    []atomic.Uint64
}

// NewBroker builds a Broker. With a Log, the cursor sequence continues from
// the log's retained history (restart resume); otherwise cursors start at 1.
func NewBroker(opts Options) *Broker {
	b := &Broker{
		opts: opts,
		ring: make([]Event, opts.ring()),
		next: 1,
		wake: make(chan struct{}),
	}
	if opts.Shards > 1 {
		b.vec = make([]uint64, opts.Shards)
		b.perShard = make([]atomic.Uint64, opts.Shards)
	} else {
		b.perShard = make([]atomic.Uint64, 1)
	}
	if opts.Log != nil {
		b.next = opts.Log.NextCursor()
		b.oldest = opts.Log.FirstCursor()
		b.logTail = make(chan struct{})
		close(b.logTail) // the first publisher's turn is immediate
	} else {
		b.oldest = 1
	}
	b.first = b.next
	return b
}

// Stats reports broker activity. Encoded by its JSON tags it is the /stats
// stream section.
type Stats struct {
	// EventsPublished counts events appended since the broker was built;
	// PerShard breaks it down by emitting shard (nil for a one-shard
	// broker).
	EventsPublished uint64   `json:"events_published"`
	PerShard        []uint64 `json:"per_shard_events,omitempty"`
	// Subscribers is the number of live subscriptions.
	Subscribers int `json:"subscribers"`
	// GapEvents counts synthetic gap events delivered to subscribers whose
	// cursor fell out of retained history.
	GapEvents uint64 `json:"gap_events"`
	// LogErrors counts events that could not be appended to the durable
	// segment log (they remain observable through the ring).
	LogErrors uint64 `json:"-"`
	// FirstCursor and NextCursor bound the retained history.
	FirstCursor uint64 `json:"first_cursor"`
	NextCursor  uint64 `json:"next_cursor"`
}

// Stats returns current broker counters. Safe from any goroutine.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	first, next := b.oldest, b.next
	b.mu.Unlock()
	var per []uint64
	if len(b.perShard) > 1 {
		per = make([]uint64, len(b.perShard))
		for i := range b.perShard {
			per[i] = b.perShard[i].Load()
		}
	}
	return Stats{
		EventsPublished: b.published.Load(),
		PerShard:        per,
		Subscribers:     int(b.subscribers.Load()),
		GapEvents:       b.gaps.Load(),
		LogErrors:       b.logErrors.Load(),
		FirstCursor:     first,
		NextCursor:      next,
	}
}

// Publish stamps events with cursors and the generation identity (seq for
// the emitting shard; the merged seq vector in sharded mode) and appends
// them to the ring and the segment log. It is the single serialization
// point of sharded streams: whichever shard's writer wins the lock first
// owns the earlier cursors, and every subscriber — live, resumed, or
// replaying after a restart — observes that same order. Publish never
// blocks on subscribers; it only wakes them.
func (b *Broker) Publish(shard int, seq uint64, events []Event) error {
	if len(events) == 0 {
		return nil
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	if b.vec != nil {
		if shard < 0 || shard >= len(b.vec) {
			b.mu.Unlock()
			return fmt.Errorf("stream: publish from shard %d of %d", shard, len(b.vec))
		}
		if seq > b.vec[shard] {
			b.vec[shard] = seq
		}
	}
	for i := range events {
		ev := &events[i]
		ev.Cursor = b.next
		ev.Shard = shard
		if b.vec != nil {
			ev.SeqVector = slices.Clone(b.vec)
			var sum uint64
			for _, s := range ev.SeqVector {
				sum += s
			}
			ev.Seq = sum
		} else {
			ev.Seq = seq
		}
		b.next++
		b.ringPush(*ev)
	}
	if b.opts.Log == nil {
		// No durable history: the ring bounds retention.
		b.oldest = b.first
	}
	logLive := b.opts.Log != nil && !b.logDead
	var turn, done chan struct{}
	if logLive {
		// Reserve this publish's slot in the append order while still under
		// mu: a concurrent shard's Publish stamps its cursors after ours
		// and will queue behind our done channel.
		turn, done = b.logTail, make(chan struct{})
		b.logTail = done
	}
	close(b.wake)
	b.wake = make(chan struct{})
	b.mu.Unlock()
	b.published.Add(uint64(len(events)))
	if shard >= 0 && shard < len(b.perShard) {
		b.perShard[shard].Add(uint64(len(events)))
	}
	if logLive {
		<-turn
		// A predecessor in the queue may have latched the log dead; a gap
		// in the positional sequence must never be appended over.
		b.mu.Lock()
		dead := b.logDead
		b.mu.Unlock()
		// The log addresses records by position: skipping one event would
		// silently shift every later record's cursor at replay time. A
		// failed append latches the log dead instead — its intact prefix
		// stays readable, and this batch and everything after live in the
		// ring only.
		if !dead && b.logEvents(events) != nil {
			dead = true
		}
		close(done)
		b.mu.Lock()
		if dead {
			b.logDead = true
		}
		if floor := min(b.opts.Log.FirstCursor(), b.first); floor > b.oldest {
			// The retention policy trimmed sealed segments; the resumable
			// floor is whichever reaches further back, the log or the ring.
			b.oldest = floor
		}
		b.mu.Unlock()
		if dead {
			b.logErrors.Add(uint64(len(events)))
		}
	}
	return nil
}

// logEvents appends one publish's events to the segment log in one write
// and checks that every frame landed at its event's cursor.
func (b *Broker) logEvents(events []Event) error {
	payloads := make([][]byte, len(events))
	for i, ev := range events {
		p, err := EncodeEvent(ev)
		if err != nil {
			return err
		}
		payloads[i] = p
	}
	first, err := b.opts.Log.Append(payloads...)
	if err != nil {
		return err
	}
	for i, ev := range events {
		if at := first + uint64(i); at != ev.Cursor {
			return fmt.Errorf("stream: log assigned cursor %d to event %d", at, ev.Cursor)
		}
	}
	return nil
}

// ringPush appends one stamped event to the ring, evicting the oldest when
// full. Caller holds b.mu.
func (b *Broker) ringPush(ev Event) {
	if b.ringN == len(b.ring) {
		b.head = (b.head + 1) % len(b.ring)
		b.first++
		b.ringN--
	}
	b.ring[(b.head+b.ringN)%len(b.ring)] = ev
	b.ringN++
}

// fetch returns up to max events starting at cursor. The ring is consulted
// first — a cursor it still holds is never a gap, even if the log's
// retention policy already trimmed it — then the segment log for older
// history. When the cursor fell out of both it returns the resume floor
// instead (gapTo > 0); when no event exists yet it returns the channel the
// next Publish closes.
func (b *Broker) fetch(cursor uint64, max int) (events []Event, gapTo uint64, wait <-chan struct{}, closed bool, err error) {
	b.mu.Lock()
	if cursor >= b.next {
		wait, closed = b.wake, b.closed
		b.mu.Unlock()
		return nil, 0, wait, closed, nil
	}
	if cursor >= b.first {
		// Serve from the ring: contiguous cursors from ring[head].
		idx := int(cursor - b.first)
		n := b.ringN - idx
		if n > max {
			n = max
		}
		events = make([]Event, 0, n)
		for i := 0; i < n; i++ {
			events = append(events, b.ring[(b.head+idx+i)%len(b.ring)])
		}
		b.mu.Unlock()
		return events, 0, nil, false, nil
	}
	ringFirst := b.first
	log := b.opts.Log
	b.mu.Unlock()
	if log == nil {
		// No durable history below the ring: the ring floor is the gap
		// resume point.
		return nil, ringFirst, nil, false, nil
	}
	payloads, err := log.ReadFrom(cursor, max)
	if err != nil {
		var trimmed interface{ Resume() uint64 }
		if errors.As(err, &trimmed) {
			// Resume from the trimmed log's floor — or the ring's, when
			// retention already trimmed past what the ring still buffers.
			floor := trimmed.Resume()
			if floor > ringFirst {
				floor = ringFirst
			}
			return nil, floor, nil, false, nil
		}
		return nil, 0, nil, false, err
	}
	events = make([]Event, 0, len(payloads))
	for _, p := range payloads {
		ev, derr := DecodeEvent(p)
		if derr != nil {
			return nil, 0, nil, false, derr
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		// The log lost the tail the ring still had (append errors): fall
		// forward to the ring rather than spinning.
		return nil, ringFirst, nil, false, nil
	}
	return events, 0, nil, false, nil
}

// SubscribeOptions filter and position one subscription.
type SubscribeOptions struct {
	// From is the first cursor wanted (inclusive; cursors start at 1).
	// 0 subscribes live: only events published after the call. Resuming
	// from an SSE Last-Event-ID (the last cursor seen) means From = id+1.
	From uint64
	// Families keeps only events whose Family is listed (nil keeps all).
	Families []string
	// Kinds keeps only the listed event kinds (nil keeps all). Gap events
	// are delivered regardless — dropping them would hide missed history.
	Kinds []Kind
	// Tier keeps only events of one tier ("" keeps both).
	Tier Tier
	// Buffer is the subscription channel's capacity (0 = DefaultBuffer).
	// The channel buffering plus the broker ring are the slack a slow
	// consumer has before it is handed a gap event.
	Buffer int
}

func (o SubscribeOptions) buffer() int {
	if o.Buffer <= 0 {
		return DefaultBuffer
	}
	return o.Buffer
}

func (o SubscribeOptions) match(ev Event) bool {
	if ev.Kind == KindGap {
		return true
	}
	if o.Tier != "" && ev.Tier != o.Tier {
		return false
	}
	if len(o.Kinds) > 0 && !slices.Contains(o.Kinds, ev.Kind) {
		return false
	}
	if len(o.Families) > 0 && !slices.Contains(o.Families, ev.Family) {
		return false
	}
	return true
}

// Subscription is one consumer of the stream; receive from Events. The
// channel closes when ctx is done or the broker closes (after delivering
// everything already published).
type Subscription struct {
	// Events delivers matching events in cursor order.
	Events <-chan Event
}

// Subscribe starts a subscription pump. Events with cursors >= opts.From
// (or published after the call, when From is 0) that match the filters are
// delivered in cursor order on the returned channel. A position that falls
// out of retained history — a resume older than retention keeps, or a slow
// consumer overrun by the ring — delivers one gap event carrying the missed
// range, then continues from the oldest retained cursor. The pump, not the
// publisher, blocks on a full channel.
func (b *Broker) Subscribe(ctx context.Context, opts SubscribeOptions) (*Subscription, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	cursor := opts.From
	if cursor == 0 {
		cursor = b.next
	}
	b.mu.Unlock()
	ch := make(chan Event, opts.buffer())
	b.subscribers.Add(1)
	go b.pump(ctx, cursor, opts, ch)
	return &Subscription{Events: ch}, nil
}

func (b *Broker) pump(ctx context.Context, cursor uint64, opts SubscribeOptions, ch chan<- Event) {
	defer close(ch)
	defer b.subscribers.Add(-1)
	send := func(ev Event) bool {
		select {
		case ch <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	}
	for {
		events, gapTo, wait, closed, err := b.fetch(cursor, fetchBatch)
		if err != nil {
			// Retained history became unreadable (disk damage while paging
			// the segment log): surface what was missed as a gap and resume
			// from the ring's floor — events the ring still buffers are
			// deliverable regardless of the log's health.
			b.mu.Lock()
			gapTo = b.first
			b.mu.Unlock()
			if gapTo <= cursor {
				gapTo = cursor + 1 // always make progress past the bad record
			}
		}
		if gapTo > 0 {
			if gapTo <= cursor {
				continue // raced a concurrent publish; re-fetch
			}
			b.gaps.Add(1)
			if !send(Event{Kind: KindGap, From: cursor, To: gapTo - 1}) {
				return
			}
			cursor = gapTo
			continue
		}
		if len(events) == 0 {
			if closed {
				return
			}
			select {
			case <-wait:
			case <-ctx.Done():
				return
			}
			continue
		}
		for _, ev := range events {
			cursor = ev.Cursor + 1
			if !opts.match(ev) {
				continue
			}
			if !send(ev) {
				return
			}
		}
	}
}

// Close stops the broker: subscribers drain what was already published and
// their channels close; the backing segment log (if any) is synced and
// closed. Publish and Subscribe fail afterwards. Close the serving writers
// first — a Publish racing Close may be dropped.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	close(b.wake)
	b.wake = make(chan struct{})
	log := b.opts.Log
	b.mu.Unlock()
	if log != nil {
		return log.Close()
	}
	return nil
}
