package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/shard"
	"annotadb/internal/storage"
	"annotadb/internal/wal"
)

// Default follower tuning.
const (
	// DefaultPoll is the tail interval while caught up with the primary.
	DefaultPoll = 50 * time.Millisecond
	// DefaultMaxBackoff caps the jittered retry interval after errors.
	DefaultMaxBackoff = 5 * time.Second
)

// Client fetches checkpoints and log chunks from a primary's replication
// endpoints.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient wraps the primary's base URL (e.g. "http://primary:8080"). A nil
// http.Client uses http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// FetchCheckpoint downloads and fully validates the primary's current
// checkpoint, returning it with the primary's run id.
func (c *Client) FetchCheckpoint(ctx context.Context) (*storage.Checkpoint, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/replication/checkpoint", nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", fmt.Errorf("replica: fetch checkpoint: %w", err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, "", httpError("checkpoint", resp)
	}
	ck, err := storage.ReadCheckpoint(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("replica: decode checkpoint: %w", err)
	}
	return ck, resp.Header.Get(HeaderRunID), nil
}

// FetchChunk requests the log tail at (epoch, from), returning the chunk and
// the primary's run id. ErrConflict reports a 409 (the position's generation
// is gone; re-bootstrap).
func (c *Client) FetchChunk(ctx context.Context, epoch uint64, from, maxBytes int64) (Chunk, string, error) {
	u := fmt.Sprintf("%s/replication/log?epoch=%d&from=%d&max_bytes=%d", c.base, epoch, from, maxBytes)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return Chunk{}, "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Chunk{}, "", fmt.Errorf("replica: fetch log chunk: %w", err)
	}
	defer drain(resp.Body)
	runID := resp.Header.Get(HeaderRunID)
	if resp.StatusCode == http.StatusConflict {
		return Chunk{}, runID, ErrConflict
	}
	if resp.StatusCode != http.StatusOK {
		return Chunk{}, runID, httpError("log chunk", resp)
	}
	ch := Chunk{From: from}
	if ch.Epoch, err = headerUint(resp, HeaderEpoch); err != nil {
		return Chunk{}, runID, err
	}
	if ch.Seq, err = headerUint(resp, HeaderSeq); err != nil {
		return Chunk{}, runID, err
	}
	size, err := headerUint(resp, HeaderSize)
	if err != nil {
		return Chunk{}, runID, err
	}
	ch.Size = int64(size)
	if ch.Data, err = io.ReadAll(resp.Body); err != nil {
		return Chunk{}, runID, fmt.Errorf("replica: read log chunk: %w", err)
	}
	return ch, runID, nil
}

func headerUint(resp *http.Response, name string) (uint64, error) {
	v, err := strconv.ParseUint(resp.Header.Get(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("replica: bad %s header %q", name, resp.Header.Get(name))
	}
	return v, nil
}

func httpError(what string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = resp.Status
	}
	return fmt.Errorf("replica: fetch %s: %s: %s", what, resp.Status, msg)
}

// drain consumes the remainder of a response body before closing it so the
// underlying connection is reusable.
func drain(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20)) //nolint:errcheck
	body.Close()
}

// World is one bootstrapped follower state: a one-shard router over an
// engine restored from a primary checkpoint. Reads load the current world
// atomically; a re-bootstrap builds a new world and swaps it in whole.
type World struct {
	// Router is the follower's serving core (its writer only ever sees the
	// sequential apply loop).
	Router *shard.Router
	// Epoch is the checkpoint generation this world bootstrapped from.
	Epoch uint64
}

// Options configures a follower.
type Options struct {
	// Primary is the primary's base URL.
	Primary string
	// Client is the HTTP client for replication fetches (nil: default).
	Client *http.Client
	// Poll is the tail interval while caught up (0: DefaultPoll).
	Poll time.Duration
	// MaxBackoff caps the jittered retry interval (0: DefaultMaxBackoff).
	MaxBackoff time.Duration
	// ChunkBytes bounds one log chunk (0: the source's default).
	ChunkBytes int64
	// Config is the follower's mining configuration; its fingerprint must
	// match the primary's checkpoints.
	Config mining.Config
	// Tag is the configuration fingerprint tag (must match the primary's).
	Tag string
	// NewRouter builds a one-shard router over a freshly restored engine;
	// called once per (re-)bootstrap. The follower owns closing it.
	NewRouter func(*incremental.Engine) (*shard.Router, error)
}

func (o Options) withDefaults() Options {
	if o.Poll <= 0 {
		o.Poll = DefaultPoll
	}
	if o.MaxBackoff < o.Poll {
		o.MaxBackoff = DefaultMaxBackoff
	}
	return o
}

// Stats is a point-in-time follower status snapshot.
type Stats struct {
	// Primary is the primary's base URL.
	Primary string
	// RunID is the primary run the watermark belongs to ("" until known).
	RunID string
	// Epoch is the checkpoint generation of the current world.
	Epoch uint64
	// Seq is the read-your-writes watermark: every primary write
	// acknowledged with seq ≤ Seq (in run RunID) is visible here.
	Seq uint64
	// Applied counts log records applied since Start.
	Applied uint64
	// Bootstraps counts checkpoint bootstraps (1 after a clean Start).
	Bootstraps uint64
	// Conflicts counts 409 re-bootstrap triggers.
	Conflicts uint64
	// TailErrors counts transient tail-loop failures.
	TailErrors uint64
	// Lag is the wall clock elapsed since the follower last confirmed the
	// primary's position — applied a frame, or polled the log and found
	// itself caught up. A healthy caught-up follower stays near the poll
	// interval; one cut off from its primary grows without bound.
	Lag time.Duration
}

// Follower tails a primary and maintains a serving world. Create with Start.
type Follower struct {
	opts   Options
	client *Client
	fp     string

	world atomic.Pointer[World]

	mu    sync.Mutex
	seq   uint64
	runID string
	seqCh chan struct{} // closed and replaced on every watermark change
	// lastContact is when the follower last confirmed the primary's
	// position (bootstrap, or a tail poll that reached the observed log
	// size); Stats derives the wall-clock lag estimate from it.
	lastContact time.Time

	applied    atomic.Uint64
	bootstraps atomic.Uint64
	conflicts  atomic.Uint64
	tailErrs   atomic.Uint64

	// Tail-loop state; touched only by Start (before the loop exists) and
	// the loop goroutine.
	epoch uint64
	from  int64
	rng   *rand.Rand

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// Start bootstraps a follower from the primary's current checkpoint and
// begins tailing its log. The initial bootstrap is synchronous: a non-nil
// return serves reads immediately.
func Start(opts Options) (*Follower, error) {
	opts = opts.withDefaults()
	if opts.Primary == "" {
		return nil, errors.New("replica: follower requires a primary URL")
	}
	if opts.NewRouter == nil {
		return nil, errors.New("replica: follower requires a NewRouter constructor")
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		opts:   opts,
		client: NewClient(opts.Primary, opts.Client),
		fp:     wal.Fingerprint(opts.Config, opts.Tag),
		seqCh:  make(chan struct{}),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	if err := f.bootstrap(ctx); err != nil {
		cancel()
		close(f.done)
		return nil, err
	}
	go f.run()
	return f, nil
}

// bootstrap fetches and restores the primary's current checkpoint into a new
// world, swaps it in, and resets the tail position to the new generation's
// origin. The old world (if any) closes after the swap; its writer is idle —
// applies only ever run from the goroutine calling us — so the close drains
// nothing and publishes no churn.
func (f *Follower) bootstrap(ctx context.Context) error {
	ck, runID, err := f.client.FetchCheckpoint(ctx)
	if err != nil {
		return err
	}
	if ck.ConfigFingerprint != f.fp {
		return fmt.Errorf("replica: primary checkpoint fingerprint %q does not match follower configuration %q", ck.ConfigFingerprint, f.fp)
	}
	eng, err := wal.RestoreEngine(ck, f.opts.Config, incremental.Options{})
	if err != nil {
		return fmt.Errorf("replica: restore checkpoint: %w", err)
	}
	router, err := f.opts.NewRouter(eng)
	if err != nil {
		return err
	}
	f.bootstraps.Add(1)
	old := f.world.Swap(&World{Router: router, Epoch: ck.Epoch})
	f.epoch = ck.Epoch
	f.from = wal.LogHeaderSize
	f.noteContact()
	f.noteRunID(runID)
	if old != nil {
		closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		old.Router.Close(closeCtx) //nolint:errcheck
	}
	return nil
}

// run is the tail loop: fetch a chunk, apply it, advance the watermark at
// applied-through-size points, re-bootstrap on conflicts, and back off with
// capped jitter on transient errors.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.opts.Poll
	for f.ctx.Err() == nil {
		caughtUp, err := f.step()
		switch {
		case err == nil:
			backoff = f.opts.Poll
			if caughtUp {
				f.sleep(f.opts.Poll)
			}
		case errors.Is(err, ErrConflict):
			f.conflicts.Add(1)
			if berr := f.bootstrap(f.ctx); berr != nil {
				if f.ctx.Err() != nil {
					return
				}
				f.tailErrs.Add(1)
				f.sleep(backoff)
				backoff = f.grow(backoff)
			} else {
				backoff = f.opts.Poll
			}
		default:
			if f.ctx.Err() != nil {
				return
			}
			f.tailErrs.Add(1)
			f.sleep(backoff)
			backoff = f.grow(backoff)
		}
	}
}

// step fetches and applies one chunk. caughtUp reports that the follower
// reached the size observed with the chunk (and advanced the watermark).
func (f *Follower) step() (caughtUp bool, err error) {
	ch, runID, err := f.client.FetchChunk(f.ctx, f.epoch, f.from, f.opts.ChunkBytes)
	if err != nil {
		return false, err
	}
	if ch.Epoch != f.epoch {
		return false, ErrConflict
	}
	recs, consumed, err := wal.DecodeFrames(ch.Data)
	// Apply the intact prefix even when the tail of the chunk is damaged:
	// the next fetch re-reads from the last good boundary, and transient
	// transport truncation heals for free.
	for _, rec := range recs {
		if aerr := f.apply(rec); aerr != nil {
			return false, aerr
		}
	}
	f.applied.Add(uint64(len(recs)))
	f.from += consumed
	if err != nil {
		return false, err
	}
	if f.from >= ch.Size {
		f.advance(ch.Seq, runID)
		return true, nil
	}
	return false, nil
}

// apply replays one log record through the world's router. The apply loop
// is the router's only writer and is sequential, so admission control never
// sheds it.
func (f *Follower) apply(rec wal.Record) error {
	return f.world.Load().Router.Replay(f.ctx, rec)
}

// noteRunID records the primary run id without touching the watermark; the
// reset happens at the next advance, when a fresh sample exists.
func (f *Follower) noteRunID(runID string) {
	if runID == "" {
		return
	}
	f.mu.Lock()
	f.runID = runID
	f.mu.Unlock()
}

// noteContact stamps the freshness clock: the follower just confirmed the
// primary's position.
func (f *Follower) noteContact() {
	f.mu.Lock()
	f.lastContact = time.Now()
	f.mu.Unlock()
}

// advance publishes a new watermark. Within one primary run it is a
// monotonic max; a run id change (primary restart) resets it unconditionally
// — the new run's sequences restarted from scratch. Even a seq-unchanged
// call stamps the freshness clock: the primary was reached and its position
// confirmed, whether or not it moved.
func (f *Follower) advance(seq uint64, runID string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lastContact = time.Now()
	switch {
	case runID != "" && runID != f.runID:
		f.runID = runID
		f.seq = seq
	case seq > f.seq:
		f.seq = seq
	default:
		return
	}
	close(f.seqCh)
	f.seqCh = make(chan struct{})
}

// grow doubles a backoff interval up to the configured cap.
func (f *Follower) grow(d time.Duration) time.Duration {
	if d *= 2; d > f.opts.MaxBackoff {
		d = f.opts.MaxBackoff
	}
	return d
}

// sleep waits a jittered interval in [d/2, d] or until the follower closes.
// The jitter keeps a fleet of followers from synchronizing their fetches.
func (f *Follower) sleep(d time.Duration) {
	if half := int64(d / 2); half > 0 {
		d = time.Duration(half + f.rng.Int63n(half+1))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.ctx.Done():
	}
}

// World returns the current serving world. Never nil after a successful
// Start.
func (f *Follower) World() *World { return f.world.Load() }

// Seq returns the current read-your-writes watermark.
func (f *Follower) Seq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// WaitSeq blocks until the watermark reaches seq, the context ends, or the
// follower closes. The barrier is meaningful only for sequences acknowledged
// by the primary run the caller observed; a primary restart resets the
// watermark, and stale barriers then resolve via the context deadline.
func (f *Follower) WaitSeq(ctx context.Context, seq uint64) error {
	for {
		f.mu.Lock()
		cur, ch := f.seq, f.seqCh
		f.mu.Unlock()
		if cur >= seq {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-f.ctx.Done():
			return errors.New("replica: follower closed")
		}
	}
}

// Stats snapshots the follower's status.
func (f *Follower) Stats() Stats {
	f.mu.Lock()
	seq, runID, contact := f.seq, f.runID, f.lastContact
	f.mu.Unlock()
	var lag time.Duration
	if !contact.IsZero() {
		lag = time.Since(contact)
	}
	st := Stats{
		Primary:    f.opts.Primary,
		RunID:      runID,
		Seq:        seq,
		Lag:        lag,
		Applied:    f.applied.Load(),
		Bootstraps: f.bootstraps.Load(),
		Conflicts:  f.conflicts.Load(),
		TailErrors: f.tailErrs.Load(),
	}
	if w := f.world.Load(); w != nil {
		st.Epoch = w.Epoch
	}
	return st
}

// Close stops the tail loop and closes the current world's router.
func (f *Follower) Close(ctx context.Context) error {
	f.cancel()
	select {
	case <-f.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if w := f.world.Load(); w != nil {
		return w.Router.Close(ctx)
	}
	return nil
}
