// Package load is the macro load harness: a closed-loop and open-loop
// HTTP load generator that drives an annotserve-compatible target with a
// configurable mix of GET /recommend reads, GET /correlate anchor queries,
// POST /annotations and POST /tuples writes, and long-lived SSE GET /events
// subscribers.
//
// The generator honors 429 Retry-After with jittered backoff, measures
// client-side latency per endpoint on the repository's log-scale
// histograms, and reports achieved vs offered throughput, shed counts,
// SSE gap/resume counts, and read-your-writes violations (a /recommend
// answer whose seq is below the largest write-acked seq observed before
// the read was issued). Traffic content comes from internal/workload
// corpus streams, so a run is deterministic in (corpus, seed).
//
// The same machinery doubles as a test fixture: StartLocal boots a real
// in-process server behind the production internal/httpapi handler, which
// is how the soak and overload-accounting suites drive it under -race.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	neturl "net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"annotadb/internal/metrics"
	"annotadb/internal/workload"
)

// Scenario configures one load run. The zero value is not runnable; see
// WithDefaults for the fallbacks applied to unset fields.
type Scenario struct {
	// Name labels the run in reports.
	Name string `json:"name"`
	// Mode is "closed" (Concurrency workers, each issuing its next
	// request after the previous response — throughput adapts to the
	// server) or "open" (arrivals at the fixed Rate regardless of
	// responses — latency under offered, not adaptive, load).
	Mode string `json:"mode"`
	// Corpus names the workload.Stream traffic shape: "paper", "metrics",
	// or "linguistic".
	Corpus string `json:"corpus"`
	// DurationSeconds bounds the run's wall clock.
	DurationSeconds float64 `json:"duration_seconds"`
	// Concurrency is the closed-loop worker count.
	Concurrency int `json:"concurrency"`
	// Rate is the open-loop arrival rate in requests per second.
	Rate float64 `json:"rate"`
	// ReadFraction, AnnotateFraction, and TupleFraction weight the
	// request mix (normalized by their sum; all zero means read-only).
	ReadFraction     float64 `json:"read_fraction"`
	AnnotateFraction float64 `json:"annotate_fraction"`
	TupleFraction    float64 `json:"tuple_fraction"`
	// CorrelateRate weights GET /correlate anchor queries into the same
	// normalized mix (0 = none). Anchors are sampled from the corpus's
	// annotation stream, so hot annotations repeat with realistic skew.
	CorrelateRate float64 `json:"correlate_rate"`
	// Subscribers is the number of long-lived SSE /events clients held
	// open for the whole run.
	Subscribers int `json:"subscribers"`
	// SubscriberReconnectSeconds, when positive, makes each subscriber
	// drop and resume (Last-Event-ID) its stream on this period,
	// exercising the cursor-resume path under load.
	SubscriberReconnectSeconds float64 `json:"subscriber_reconnect_seconds"`
	// BatchSize is the updates-per-request size of annotation batches;
	// TupleBatchSize the tuples-per-request size of tuple batches.
	BatchSize      int `json:"batch_size"`
	TupleBatchSize int `json:"tuple_batch_size"`
	// MaxRetries bounds 429 retries per logical write (0 = give up on the
	// first shed). Every 429 response counts toward the shed statistic
	// whether or not it is retried.
	MaxRetries int `json:"max_retries"`
	// MaxBackoffSeconds caps the Retry-After honored per backoff sleep
	// (the jittered sleep is uniform in [0.5, 1.5) × the capped hint).
	MaxBackoffSeconds float64 `json:"max_backoff_seconds"`
	// Seed makes the run's traffic deterministic.
	Seed int64 `json:"seed"`
}

// WithDefaults returns the scenario with unset fields filled in: closed
// mode, 8 workers, 100 req/s offered, 5 s, a read-heavy 80/15/5 mix,
// batch sizes 16/4, 2 retries, 1 s backoff cap, paper corpus.
func (s Scenario) WithDefaults() Scenario {
	if s.Mode == "" {
		s.Mode = "closed"
	}
	if s.Corpus == "" {
		s.Corpus = "paper"
	}
	if s.DurationSeconds <= 0 {
		s.DurationSeconds = 5
	}
	if s.Concurrency <= 0 {
		s.Concurrency = 8
	}
	if s.Rate <= 0 {
		s.Rate = 100
	}
	if s.ReadFraction == 0 && s.AnnotateFraction == 0 && s.TupleFraction == 0 && s.CorrelateRate == 0 {
		s.ReadFraction, s.AnnotateFraction, s.TupleFraction = 0.80, 0.15, 0.05
	}
	if s.BatchSize <= 0 {
		s.BatchSize = 16
	}
	if s.TupleBatchSize <= 0 {
		s.TupleBatchSize = 4
	}
	if s.MaxRetries < 0 {
		s.MaxRetries = 0
	}
	if s.MaxBackoffSeconds <= 0 {
		s.MaxBackoffSeconds = 1
	}
	return s
}

// Validate rejects unrunnable scenarios (after WithDefaults).
func (s Scenario) Validate() error {
	if s.Mode != "closed" && s.Mode != "open" {
		return fmt.Errorf("load: mode %q is neither closed nor open", s.Mode)
	}
	if s.ReadFraction < 0 || s.AnnotateFraction < 0 || s.TupleFraction < 0 || s.CorrelateRate < 0 {
		return errors.New("load: negative mix fraction")
	}
	if s.ReadFraction+s.AnnotateFraction+s.TupleFraction+s.CorrelateRate <= 0 {
		return errors.New("load: request mix sums to zero")
	}
	if s.Subscribers < 0 {
		return errors.New("load: negative subscriber count")
	}
	if _, err := workload.NewStream(s.Corpus, s.Seed); err != nil {
		return err
	}
	return nil
}

// Target is the server a run drives.
type Target struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080". Writes,
	// the /stats probe, and SSE subscribers always go here.
	BaseURL string
	// ReadURLs, when non-empty, are the endpoints GET /recommend reads
	// round-robin across — typically the primary plus its read replicas
	// (Local.ReadURLs after a StartLocal with Followers set). Replica reads
	// carry the client's write watermark as a min_seq barrier, so the
	// read-your-writes check keeps its meaning under bounded staleness.
	ReadURLs []string
	// Client issues the requests; nil uses a transport sized for the
	// scenario's concurrency.
	Client *http.Client
}

// EndpointReport is the client-side view of one endpoint over a run.
// Latency quantiles come from the same log-scale histogram the server
// uses internally (≤25% bucket error, exact max).
type EndpointReport struct {
	// Requests counts 2xx responses; Errors counts non-2xx responses
	// other than 429; Shed counts 429 responses (one per response, before
	// any retry); Retries counts re-issues after a 429.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Shed     uint64 `json:"shed"`
	Retries  uint64 `json:"retries"`
	// Misses counts 404 responses on /correlate: the sampled anchor had no
	// occurrence in the answering snapshot yet (expected early in a run,
	// before the write mix applies it), so it is neither a success nor a
	// server error. Always zero on other endpoints.
	Misses uint64 `json:"misses,omitempty"`
	// MeanMillis, P50Millis, P99Millis, and MaxMillis digest successful
	// request latency in milliseconds.
	MeanMillis float64 `json:"mean_ms"`
	P50Millis  float64 `json:"p50_ms"`
	P99Millis  float64 `json:"p99_ms"`
	MaxMillis  float64 `json:"max_ms"`
}

// SSEReport digests the run's event subscribers.
type SSEReport struct {
	// Subscribers is the configured client count; Events the non-gap
	// events received across all of them; Gaps the gap frames; Resumes
	// the Last-Event-ID reconnects performed.
	Subscribers int    `json:"subscribers"`
	Events      uint64 `json:"events"`
	Gaps        uint64 `json:"gaps"`
	Resumes     uint64 `json:"resumes"`
	// CursorRegressions counts events whose cursor failed to advance past
	// the previous one on the same subscriber — replayed or reordered
	// history; always zero on a correct server.
	CursorRegressions uint64 `json:"cursor_regressions"`
}

// Report is the result of one load run.
type Report struct {
	// Scenario echoes the (defaulted) configuration that ran.
	Scenario Scenario `json:"scenario"`
	// DurationSeconds is the measured wall clock of the run.
	DurationSeconds float64 `json:"duration_seconds"`
	// OfferedRPS is the intended arrival rate (open mode; closed mode
	// offers whatever it achieves). AchievedRPS is completed 2xx
	// request throughput.
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	// Completed counts 2xx responses across all endpoints.
	Completed uint64 `json:"completed"`
	// SeqRegressions counts read-your-writes violations: /recommend
	// answers whose seq was below the largest write-acked seq known
	// before the read was issued. Always zero on a correct server.
	SeqRegressions uint64 `json:"seq_regressions"`
	// Recommend, Correlate, Annotations, and Tuples are the per-endpoint
	// digests.
	Recommend   EndpointReport `json:"recommend"`
	Correlate   EndpointReport `json:"correlate"`
	Annotations EndpointReport `json:"annotations"`
	Tuples      EndpointReport `json:"tuples"`
	// SSE digests the event subscribers.
	SSE SSEReport `json:"sse"`
}

// TotalShed sums 429 responses across the write endpoints.
func (r *Report) TotalShed() uint64 {
	return r.Annotations.Shed + r.Tuples.Shed
}

// endpoint aggregates one endpoint's live counters.
type endpoint struct {
	hist     metrics.Histogram
	requests atomic.Uint64
	errors   atomic.Uint64
	shed     atomic.Uint64
	retries  atomic.Uint64
	misses   atomic.Uint64
}

func (e *endpoint) report() EndpointReport {
	s := e.hist.Summary()
	return EndpointReport{
		Requests:   e.requests.Load(),
		Errors:     e.errors.Load(),
		Shed:       e.shed.Load(),
		Retries:    e.retries.Load(),
		Misses:     e.misses.Load(),
		MeanMillis: ms(s.Mean),
		P50Millis:  ms(s.P50),
		P99Millis:  ms(s.P99),
		MaxMillis:  ms(s.Max),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runState is the shared state of one run.
type runState struct {
	sc     Scenario
	base   string
	client *http.Client
	relLen int
	// reads are the GET /recommend endpoints (just base without replicas);
	// readIdx round-robins across them; replicaReads marks that some of
	// them are followers, so reads must carry the min_seq barrier.
	reads        []string
	readIdx      atomic.Uint64
	replicaReads bool
	maxAcked     atomic.Uint64
	seqRegr      atomic.Uint64

	recommend   endpoint
	correlate   endpoint
	annotations endpoint
	tuples      endpoint
}

// ackSeq folds a write-acked seq into the read-your-writes watermark.
func (st *runState) ackSeq(seq uint64) {
	for {
		cur := st.maxAcked.Load()
		if seq <= cur || st.maxAcked.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// worker is one traffic source: its own rng and corpus stream, so the
// run's content is deterministic per (seed, worker index) regardless of
// scheduling.
type worker struct {
	rng    *rand.Rand
	stream workload.Stream
}

func newWorker(sc Scenario, id int) *worker {
	stream, err := workload.NewStream(sc.Corpus, sc.Seed+int64(id)*1000003)
	if err != nil {
		// Validate ran before workers start; the corpus is known good.
		panic(err)
	}
	return &worker{
		rng:    rand.New(rand.NewSource(sc.Seed ^ int64(id)*2654435761)),
		stream: stream,
	}
}

// Run drives the target with the scenario until its duration elapses (or
// ctx is canceled early) and returns the client-side report.
func Run(ctx context.Context, tgt Target, sc Scenario) (*Report, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	client := tgt.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = sc.Concurrency + sc.Subscribers + 8
		client = &http.Client{Transport: tr}
	}
	st := &runState{sc: sc, base: tgt.BaseURL, client: client, reads: tgt.ReadURLs}
	if len(st.reads) == 0 {
		st.reads = []string{tgt.BaseURL}
	} else {
		st.replicaReads = true
	}
	relLen, err := fetchTuples(ctx, client, tgt.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("load: probe target: %w", err)
	}
	if relLen == 0 {
		return nil, errors.New("load: target serves an empty relation; reads have nothing to hit")
	}
	st.relLen = relLen

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Subscribers live for the whole run and stop with runCtx.
	subs := make([]*sseClient, sc.Subscribers)
	var subWG sync.WaitGroup
	for i := range subs {
		subs[i] = newSSEClient(tgt.BaseURL, client, time.Duration(sc.SubscriberReconnectSeconds*float64(time.Second)), false)
		subWG.Add(1)
		go func(c *sseClient) { defer subWG.Done(); c.run(runCtx) }(subs[i])
	}

	start := time.Now()
	deadline := start.Add(time.Duration(sc.DurationSeconds * float64(time.Second)))
	var offered uint64
	var workWG sync.WaitGroup
	if sc.Mode == "closed" {
		for i := 0; i < sc.Concurrency; i++ {
			w := newWorker(sc, i)
			workWG.Add(1)
			go func() {
				defer workWG.Done()
				for time.Now().Before(deadline) && runCtx.Err() == nil {
					st.doOne(runCtx, w)
				}
			}()
		}
		workWG.Wait()
	} else {
		// Open loop: arrivals on a fixed clock, each served by a pooled
		// worker in its own goroutine so a slow response never delays the
		// next arrival (the defining property of open-loop load).
		pool := sync.Pool{New: func() any {
			w := newWorker(sc, int(atomic.AddInt64(&openWorkerID, 1)))
			return w
		}}
		interval := time.Duration(float64(time.Second) / sc.Rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		ticker := time.NewTicker(interval)
	dispatch:
		for time.Now().Before(deadline) {
			select {
			case <-runCtx.Done():
				break dispatch
			case <-ticker.C:
				offered++
				workWG.Add(1)
				go func() {
					defer workWG.Done()
					w := pool.Get().(*worker)
					st.doOne(runCtx, w)
					pool.Put(w)
				}()
			}
		}
		ticker.Stop()
		workWG.Wait()
	}
	elapsed := time.Since(start)
	cancel()
	subWG.Wait()

	rep := &Report{
		Scenario:        sc,
		DurationSeconds: elapsed.Seconds(),
		Recommend:       st.recommend.report(),
		Correlate:       st.correlate.report(),
		Annotations:     st.annotations.report(),
		Tuples:          st.tuples.report(),
		SeqRegressions:  st.seqRegr.Load(),
	}
	rep.Completed = rep.Recommend.Requests + rep.Correlate.Requests + rep.Annotations.Requests + rep.Tuples.Requests
	rep.AchievedRPS = float64(rep.Completed) / elapsed.Seconds()
	if sc.Mode == "open" {
		rep.OfferedRPS = float64(offered) / elapsed.Seconds()
	} else {
		rep.OfferedRPS = rep.AchievedRPS
	}
	rep.SSE.Subscribers = sc.Subscribers
	for _, c := range subs {
		rep.SSE.Events += c.events.Load()
		rep.SSE.Gaps += c.gaps.Load()
		rep.SSE.Resumes += c.resumes.Load()
		rep.SSE.CursorRegressions += c.regressions.Load()
	}
	return rep, nil
}

// openWorkerID hands out distinct worker identities to the open-loop pool
// across a process (pooled workers are reused, so the count stays small).
var openWorkerID int64

// doOne issues one request of the scenario's mix.
func (st *runState) doOne(ctx context.Context, w *worker) {
	total := st.sc.ReadFraction + st.sc.CorrelateRate + st.sc.AnnotateFraction + st.sc.TupleFraction
	p := w.rng.Float64() * total
	switch {
	case p < st.sc.ReadFraction:
		st.doRecommend(ctx, w)
	case p < st.sc.ReadFraction+st.sc.CorrelateRate:
		st.doCorrelate(ctx, w)
	case p < st.sc.ReadFraction+st.sc.CorrelateRate+st.sc.AnnotateFraction:
		st.doAnnotations(ctx, w)
	default:
		st.doTuples(ctx, w)
	}
}

// doRecommend reads one tuple's recommendations — round-robin across the
// read endpoints — and checks the read-your-writes watermark. When the
// rotation includes replicas, the read carries the watermark as a min_seq
// barrier: a follower serves bounded staleness, and only a barrier read
// makes "answer seq below my acked writes" a violation rather than lag. A
// read shed by a per-instance admission cap (429) counts once toward Shed
// and retries — on the next endpoint in the rotation — under the same
// policy as writes.
func (st *runState) doRecommend(ctx context.Context, w *worker) {
	idx := w.rng.Intn(st.relLen)
	for attempt := 0; ; attempt++ {
		floor := st.maxAcked.Load()
		url := st.reads[st.readIdx.Add(1)%uint64(len(st.reads))] +
			"/recommend?tuple=" + strconv.Itoa(idx)
		if st.replicaReads && floor > 0 {
			url += "&min_seq=" + strconv.FormatUint(floor, 10) + "&wait_ms=5000"
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			st.recommend.errors.Add(1)
			return
		}
		startAt := time.Now()
		resp, err := st.client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				st.recommend.errors.Add(1)
			}
			return
		}
		if resp.StatusCode == http.StatusOK {
			var body struct {
				Seq uint64 `json:"seq"`
			}
			decodeErr := json.NewDecoder(resp.Body).Decode(&body)
			drain(resp)
			if decodeErr != nil {
				st.recommend.errors.Add(1)
				return
			}
			st.recommend.hist.Observe(time.Since(startAt))
			st.recommend.requests.Add(1)
			if body.Seq < floor {
				st.seqRegr.Add(1)
			}
			return
		}
		retryAfter := resp.Header.Get("Retry-After")
		drain(resp)
		if resp.StatusCode != http.StatusTooManyRequests {
			st.recommend.errors.Add(1)
			return
		}
		st.recommend.shed.Add(1)
		if attempt >= st.sc.MaxRetries {
			return
		}
		if !st.backoff(ctx, w, retryAfter) {
			return
		}
		st.recommend.retries.Add(1)
	}
}

// doCorrelate issues one anchor query, sampling the anchor from the
// corpus's annotation stream so hot annotations repeat with realistic skew.
// It shares doRecommend's contracts: reads round-robin across the read
// endpoints, replica reads carry the write watermark as a min_seq barrier
// (so the seq check below means violation, not lag), and a 429 from the
// read admission cap counts once toward Shed and retries on the next
// endpoint in the rotation. A 404 means the sampled anchor has no
// occurrence in the answering snapshot yet — expected before the write mix
// applies it — and counts as a miss, not an error.
func (st *runState) doCorrelate(ctx context.Context, w *worker) {
	anchor := w.stream.Annotations(1, st.relLen)[0].Annotation
	for attempt := 0; ; attempt++ {
		floor := st.maxAcked.Load()
		url := st.reads[st.readIdx.Add(1)%uint64(len(st.reads))] +
			"/correlate?anchor=" + neturl.QueryEscape(anchor)
		if st.replicaReads && floor > 0 {
			url += "&min_seq=" + strconv.FormatUint(floor, 10) + "&wait_ms=5000"
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			st.correlate.errors.Add(1)
			return
		}
		startAt := time.Now()
		resp, err := st.client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				st.correlate.errors.Add(1)
			}
			return
		}
		if resp.StatusCode == http.StatusOK {
			var body struct {
				Seq uint64 `json:"seq"`
			}
			decodeErr := json.NewDecoder(resp.Body).Decode(&body)
			drain(resp)
			if decodeErr != nil {
				st.correlate.errors.Add(1)
				return
			}
			st.correlate.hist.Observe(time.Since(startAt))
			st.correlate.requests.Add(1)
			if body.Seq < floor {
				st.seqRegr.Add(1)
			}
			return
		}
		retryAfter := resp.Header.Get("Retry-After")
		drain(resp)
		switch resp.StatusCode {
		case http.StatusNotFound:
			st.correlate.misses.Add(1)
			return
		case http.StatusTooManyRequests:
		default:
			st.correlate.errors.Add(1)
			return
		}
		st.correlate.shed.Add(1)
		if attempt >= st.sc.MaxRetries {
			return
		}
		if !st.backoff(ctx, w, retryAfter) {
			return
		}
		st.correlate.retries.Add(1)
	}
}

// doAnnotations posts one annotation batch.
func (st *runState) doAnnotations(ctx context.Context, w *worker) {
	batch := w.stream.Annotations(st.sc.BatchSize, st.relLen)
	body, err := json.Marshal(map[string]any{"updates": batch})
	if err != nil {
		st.annotations.errors.Add(1)
		return
	}
	st.postWrite(ctx, w, "/annotations", body, &st.annotations)
}

// doTuples posts one tuple batch.
func (st *runState) doTuples(ctx context.Context, w *worker) {
	batch := w.stream.Tuples(st.sc.TupleBatchSize)
	body, err := json.Marshal(map[string]any{"tuples": batch})
	if err != nil {
		st.tuples.errors.Add(1)
		return
	}
	st.postWrite(ctx, w, "/tuples", body, &st.tuples)
}

// postWrite issues one write with the 429 retry policy: every shed
// response counts once toward Shed, retries re-issue after a jittered
// sleep honoring (a capped) Retry-After, and a 2xx folds the acked seq
// into the read-your-writes watermark.
func (st *runState) postWrite(ctx context.Context, w *worker, path string, body []byte, ep *endpoint) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.base+path, bytes.NewReader(body))
		if err != nil {
			ep.errors.Add(1)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		startAt := time.Now()
		resp, err := st.client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				ep.errors.Add(1)
			}
			return
		}
		if resp.StatusCode == http.StatusOK {
			var rep struct {
				Seq uint64 `json:"seq"`
			}
			decodeErr := json.NewDecoder(resp.Body).Decode(&rep)
			drain(resp)
			if decodeErr != nil {
				ep.errors.Add(1)
				return
			}
			ep.hist.Observe(time.Since(startAt))
			ep.requests.Add(1)
			st.ackSeq(rep.Seq)
			return
		}
		retryAfter := resp.Header.Get("Retry-After")
		drain(resp)
		if resp.StatusCode != http.StatusTooManyRequests {
			ep.errors.Add(1)
			return
		}
		ep.shed.Add(1)
		if attempt >= st.sc.MaxRetries {
			return
		}
		if !st.backoff(ctx, w, retryAfter) {
			return
		}
		ep.retries.Add(1)
	}
}

// backoff sleeps one jittered Retry-After interval (capped by the
// scenario) before a 429 retry; false means the run ended mid-sleep.
func (st *runState) backoff(ctx context.Context, w *worker, retryAfter string) bool {
	hint := 1.0
	if v, err := strconv.ParseFloat(retryAfter, 64); err == nil && v > 0 {
		hint = v
	}
	if hint > st.sc.MaxBackoffSeconds {
		hint = st.sc.MaxBackoffSeconds
	}
	sleep := time.Duration(hint * (0.5 + w.rng.Float64()) * float64(time.Second))
	select {
	case <-ctx.Done():
		return false
	case <-time.After(sleep):
		return true
	}
}

// fetchTuples probes /stats for the target's relation length.
func fetchTuples(ctx context.Context, client *http.Client, base string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	var body struct {
		Tuples int `json:"tuples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	return body.Tuples, nil
}

// drain discards the rest of a response body (up to a sanity cap) and
// closes it so the connection returns to the pool.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
