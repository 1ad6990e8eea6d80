package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"annotadb"
	"annotadb/internal/httpapi"
)

// maxShedRetries bounds how often one op is resent after a 429 before it
// counts as failed.
const maxShedRetries = 20

// sampleEvery is the output-check sampling period over read ops: one read in
// a hundred is compared with the facade's own answer.
const sampleEvery = 100

// writeRec is one acknowledged write, for event-lag matching: when it was
// sent and the per-shard sequence vector it was acked at (one component when
// unsharded).
type writeRec struct {
	sendNs int64
	vec    []uint64
}

// readResp is what the client decodes of every /recommend and /correlate
// response; the sampled check decodes the payload fully.
type readResp struct {
	Seq             uint64                        `json:"seq"`
	SeqVector       []uint64                      `json:"seq_vector"`
	Count           int                           `json:"count"`
	Recommendations []httpapi.RecommendationJSON  `json:"recommendations"`
	Results         []httpapi.CorrelateResultJSON `json:"results"`
}

// client is one closed-loop caller on its own keep-alive connection. All of
// its fields belong to its goroutine until the run's WaitGroup releases them.
type client struct {
	hc    *http.Client
	base  string
	list  *opList
	srv   *annotadb.Server
	epoch time.Time
	tr    *tracer

	// lat is the run's per-op latency table, shared by its clients: each
	// writes only the slots of the ops it executed.
	lat    []int64
	writes []writeRec
	// acked is the largest per-shard sequence vector this client has been
	// acknowledged at: the read-your-writes floor of its later reads.
	acked []uint64

	attempted, failed int
	shedRetries       int
	rywViolations     int
	sampled           int
	sampleMismatch    int
	updatesAcked      int
	promoted          int
	discovered        int
	firstErr          error
	buf               bytes.Buffer
}

func newClient(base string, list *opList, lat []int64, srv *annotadb.Server, epoch time.Time, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
		}},
		base: base, list: list, lat: lat, srv: srv, epoch: epoch, tr: tr,
	}
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// send performs one HTTP exchange and leaves the body in c.buf.
func (c *client) send(o op) (int, string, error) {
	var (
		req *http.Request
		err error
	)
	switch o.class {
	case opRecommend:
		req, err = http.NewRequest(http.MethodGet, c.base+c.list.recommendPaths[o.arg], nil)
	case opCorrelate:
		req, err = http.NewRequest(http.MethodGet, c.base+c.list.anchorPaths[o.arg], nil)
	case opAnnotations:
		req, err = http.NewRequest(http.MethodPost, c.base+"/annotations", bytes.NewReader(c.list.bodies[o.arg]))
	case opTuples:
		req, err = http.NewRequest(http.MethodPost, c.base+"/tuples", bytes.NewReader(c.list.bodies[o.arg]))
	}
	if err != nil {
		return 0, "", err
	}
	if req.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After"), err
}

// do runs op number i. The latency of a timed op spans every resend after a
// shed: the caller waited that long for its answer.
func (c *client) do(i int, o op, timed bool) {
	c.attempted++
	start := time.Now()
	var (
		status int
		err    error
	)
	for try := 0; ; try++ {
		var retryAfter string
		status, retryAfter, err = c.send(o)
		if err != nil || status != http.StatusTooManyRequests || try == maxShedRetries {
			break
		}
		c.shedRetries++
		wait, perr := strconv.ParseFloat(retryAfter, 64)
		if perr != nil || wait <= 0 {
			wait = 0.001
		}
		time.Sleep(time.Duration(wait * float64(time.Second)))
	}
	end := time.Now()
	if err != nil {
		c.fail(fmt.Errorf("op %d %s: %w", i, classNames[o.class], err))
		return
	}
	if status != http.StatusOK {
		c.fail(fmt.Errorf("op %d %s: status %d: %s", i, classNames[o.class], status, strings.TrimSpace(c.buf.String())))
		return
	}
	if timed {
		c.lat[i] = end.Sub(start).Nanoseconds()
		c.tr.span("net."+classNames[o.class], "", i, start, end)
	}
	switch o.class {
	case opRecommend, opCorrelate:
		var r readResp
		if err := json.Unmarshal(c.buf.Bytes(), &r); err != nil {
			c.fail(fmt.Errorf("op %d %s: decode: %w", i, classNames[o.class], err))
			return
		}
		if !dominates(seqVec(r.Seq, r.SeqVector), c.acked) {
			c.rywViolations++
			c.fail(fmt.Errorf("op %d %s: read at seq %v below acked %v", i, classNames[o.class], seqVec(r.Seq, r.SeqVector), c.acked))
			return
		}
		if i%sampleEvery == 0 {
			c.checkSample(i, o, &r)
		}
	default:
		var r httpapi.ReportJSON
		if err := json.Unmarshal(c.buf.Bytes(), &r); err != nil {
			c.fail(fmt.Errorf("op %d %s: decode: %w", i, classNames[o.class], err))
			return
		}
		vec := seqVec(r.Seq, r.SeqVector)
		if c.acked == nil {
			c.acked = make([]uint64, len(vec))
		}
		for k := range vec {
			c.acked[k] = max(c.acked[k], vec[k])
		}
		c.promoted += r.Promoted
		c.discovered += r.Discovered
		if timed {
			c.updatesAcked += c.list.updates[o.arg]
			c.writes = append(c.writes, writeRec{sendNs: start.Sub(c.epoch).Nanoseconds(), vec: vec})
		}
	}
}

// seqVec is a response's generation as a vector: the per-shard vector when
// sharded, the scalar sequence as its only component otherwise.
func seqVec(seq uint64, vec []uint64) []uint64 {
	if vec != nil {
		return vec
	}
	return []uint64{seq}
}

// dominates reports whether got is componentwise at or beyond floor (a nil
// floor means no write was acknowledged yet).
func dominates(got, floor []uint64) bool {
	if floor == nil {
		return true
	}
	if len(got) != len(floor) {
		return false
	}
	for k := range floor {
		if got[k] < floor[k] {
			return false
		}
	}
	return true
}

// checkSample compares a read's decoded payload with the facade's answer.
// The comparison is only meaningful at the same generation; when a
// concurrent write published in between, the sample is skipped, not failed.
func (c *client) checkSample(i int, o op, got *readResp) {
	switch o.class {
	case opRecommend:
		recs, rs, err := c.srv.RecommendAt(int(o.arg))
		if err != nil {
			c.attempted++
			c.fail(fmt.Errorf("op %d: facade recommend: %w", i, err))
			return
		}
		if !reflect.DeepEqual(seqVec(rs.Seq, rs.Shards), seqVec(got.Seq, got.SeqVector)) {
			return
		}
		want := make([]httpapi.RecommendationJSON, len(recs))
		for k, r := range recs {
			want[k] = httpapi.RecommendationJSON{Tuple: r.Tuple, Annotation: r.Annotation, Rule: ruleJSON(r.Rule)}
		}
		c.attempted++
		c.sampled++
		if got.Count != len(want) || !reflect.DeepEqual(got.Recommendations, want) {
			c.sampleMismatch++
			c.fail(fmt.Errorf("op %d: /recommend body differs from the facade answer at seq %d", i, got.Seq))
		}
	case opCorrelate:
		ans, rs, err := c.srv.Correlate(c.list.anchors[o.arg], 0, 0)
		if err != nil {
			c.attempted++
			c.fail(fmt.Errorf("op %d: facade correlate: %w", i, err))
			return
		}
		if !reflect.DeepEqual(seqVec(rs.Seq, rs.Shards), seqVec(got.Seq, got.SeqVector)) {
			return
		}
		want := make([]httpapi.CorrelateResultJSON, len(ans.Results))
		for k, r := range ans.Results {
			chi2 := r.ChiSquare
			if math.IsInf(chi2, 1) {
				chi2 = math.MaxFloat64 // the wire form of a degenerate table
			}
			want[k] = httpapi.CorrelateResultJSON{
				Token: r.Token, Family: r.Family, Count: r.Count, Frequency: r.Frequency,
				Confidence: r.Confidence, Lift: r.Lift, ChiSquare: chi2, PValue: r.PValue,
			}
		}
		c.attempted++
		c.sampled++
		if got.Count != len(want) || !reflect.DeepEqual(got.Results, want) {
			c.sampleMismatch++
			c.fail(fmt.Errorf("op %d: /correlate body differs from the facade answer at seq %d", i, got.Seq))
		}
	}
}

func ruleJSON(r annotadb.Rule) httpapi.RuleJSON {
	return httpapi.RuleJSON{
		LHS: r.LHS, RHS: r.RHS, Kind: string(r.Kind), Support: r.Support, Confidence: r.Confidence,
		PatternCount: r.PatternCount, LHSCount: r.LHSCount, N: r.N,
	}
}

// runPhase replays ops[from:to) over the clients, closed loop: each client
// takes the next unclaimed op as soon as its previous one completed, so the
// list is walked in order with as many ops in flight as there are clients.
// It returns the marks taken at the phase's start and end.
func runPhase(clients []*client, ops []op, from, to int, timed bool) (first, last mark) {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	first = markNow()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= to {
					return
				}
				c.do(i, ops[i], timed)
			}
		}(c)
	}
	wg.Wait()
	return first, markNow()
}

// eventRec is one churn event as the subscriber received it: seq is the
// emitting shard's own generation.
type eventRec struct {
	recvNs int64
	cursor uint64
	shard  int
	seq    uint64
}

// subscriber is the workload's one GET /events consumer.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	ready  chan error
	epoch  time.Time

	mu          sync.Mutex
	events      []eventRec
	gaps        int
	regressions int
	decodeErrs  int
	last        atomic.Uint64
}

// subscribe opens the stream and returns once the server accepted it, so no
// event of the run can precede the subscription.
func subscribe(base string, epoch time.Time) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &subscriber{cancel: cancel, done: make(chan struct{}), ready: make(chan error, 1), epoch: epoch}
	go s.run(ctx, base)
	if err := <-s.ready; err != nil {
		cancel()
		<-s.done
		return nil, err
	}
	return s, nil
}

func (s *subscriber) run(ctx context.Context, base string) {
	defer close(s.done)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	if err != nil {
		s.ready <- err
		return
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Do(req)
	if err != nil {
		s.ready <- err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.ready <- fmt.Errorf("GET /events: status %d", resp.StatusCode)
		return
	}
	s.ready <- nil
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("data: ")) {
			continue
		}
		now := time.Since(s.epoch).Nanoseconds()
		var ev httpapi.EventJSON
		if err := json.Unmarshal(line[len("data: "):], &ev); err != nil {
			s.mu.Lock()
			s.decodeErrs++
			s.mu.Unlock()
			continue
		}
		s.mu.Lock()
		if ev.Kind == annotadb.EventGap {
			s.gaps++
			s.mu.Unlock()
			continue
		}
		if ev.Cursor <= s.last.Load() {
			s.regressions++
		}
		seq := ev.Seq
		if ev.SeqVector != nil && ev.Shard < len(ev.SeqVector) {
			seq = ev.SeqVector[ev.Shard]
		}
		s.events = append(s.events, eventRec{recvNs: now, cursor: ev.Cursor, shard: ev.Shard, seq: seq})
		s.mu.Unlock()
		s.last.Store(ev.Cursor)
	}
}

// drain waits (bounded) until the subscriber has received every event the
// server published, then ends the stream.
func (s *subscriber) drain(srv *annotadb.Server) {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if next := srv.StreamStats().NextCursor; next == 0 || s.last.Load() >= next-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.cancel()
	<-s.done
}

// eventLags matches events to the writes that caused them: the first event
// of shard k's generation e answers the write acknowledged at the smallest
// k-th component >= e, i.e. the write whose ack followed that publish.
func eventLags(writes []writeRec, events []eventRec) []int64 {
	type ack struct {
		seq    uint64
		sendNs int64
	}
	var perShard [][]ack
	for _, w := range writes {
		for k, seq := range w.vec {
			for len(perShard) <= k {
				perShard = append(perShard, nil)
			}
			perShard[k] = append(perShard[k], ack{seq, w.sendNs})
		}
	}
	for _, acks := range perShard {
		sort.Slice(acks, func(i, j int) bool {
			if acks[i].seq != acks[j].seq {
				return acks[i].seq < acks[j].seq
			}
			return acks[i].sendNs < acks[j].sendNs
		})
	}
	type key struct {
		shard int
		seq   uint64
	}
	seen := map[key]bool{}
	var lags []int64
	for _, ev := range events {
		k := key{ev.shard, ev.seq}
		if seen[k] || ev.shard >= len(perShard) {
			continue
		}
		seen[k] = true
		acks := perShard[ev.shard]
		i := sort.Search(len(acks), func(i int) bool { return acks[i].seq >= ev.seq })
		if i < len(acks) && ev.recvNs > acks[i].sendNs {
			lags = append(lags, ev.recvNs-acks[i].sendNs)
		}
	}
	return lags
}

func drainBody(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
}
