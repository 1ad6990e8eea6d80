// Package httpapi exposes an annotadb Server over HTTP/JSON: the transport
// layer shared by cmd/annotserve, internal/load's in-process server
// (annotload -local; the soak, replica and overload-accounting suites), the
// root mode-matrix and follower tests, and the benchmark/ harness. Keeping
// the handler out of the daemon means a load test exercises byte-for-byte
// the same routing, status mapping, and SSE framing production traffic sees.
//
// Endpoints (see cmd/annotserve/README.md for curl examples):
//
//	GET  /rules        current rules (?kind=, ?limit=)
//	GET  /recommend    ?tuple=N — recommendations for one tuple, with the
//	                   snapshot seq (and seq_vector when sharded) answered
//	                   from; ?min_seq=S (+?wait_ms=T) is a read-your-writes
//	                   barrier — the read waits until the advertised seq
//	                   reaches S (meaningful on followers; a primary's acked
//	                   writes are always visible)
//	GET  /correlate    ?anchor=<token> — the top-K annotations most strongly
//	                   associated with the anchor, ranked by confidence and
//	                   lift and filtered by a chi-square significance test
//	                   (?k=, ?min_lift=); same seq reporting and min_seq
//	                   barrier as /recommend
//	POST /annotations  apply an annotation batch (JSON or Figure 14 text);
//	                   the response reports the snapshot seq at ack time
//	POST /tuples       append tuples; same seq reporting
//	GET  /stats        serving, dataset, stream, durability, and (on a
//	                   follower) replication statistics
//	GET  /events       rule-churn Server-Sent Events with cursor resume
//	GET  /healthz      200 ok / 503 degraded once a write-path failure latched
//
// A durable unsharded primary additionally feeds read replicas (see
// internal/replica and annotadb.Follow):
//
//	GET /replication/checkpoint  stream the latest checkpoint file
//	                             (X-Annotadb-Epoch, X-Annotadb-Run-Id)
//	GET /replication/log         ?epoch=E&from=N&max_bytes=M — page WAL
//	                             frames; 409 when the position's generation
//	                             is gone (re-bootstrap)
//
// Errors are structured JSON: {"error":{"code":"...","message":"..."}} with
// the stable codes in the Code* constants.
//
// NewWithOptions can additionally cap admitted reads per second on this
// instance (Options.ReadRate): excess /rules, /recommend, and /correlate
// requests shed with 429 + Retry-After, the read-side counterpart of the
// write admission queue, so each replica in a read fleet protects its own
// latency floor.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"annotadb"
	"annotadb/internal/correlate"
	"annotadb/internal/replica"
	"annotadb/internal/stream"
)

// Error codes of the structured error schema. Every non-2xx response has
// the body {"error":{"code":"<one of these>","message":"..."}}; the code is
// a stable machine-readable classification, the message is human-readable
// detail.
const (
	// CodeInvalidArgument is a 400: malformed request or bad batch.
	CodeInvalidArgument = "invalid_argument"
	// CodeNotFound is a 404: tuple index out of range (or /events disabled).
	CodeNotFound = "not_found"
	// CodeTooLarge is a 413: body over the byte budget.
	CodeTooLarge = "payload_too_large"
	// CodeInternal is a 500: server-side failure (e.g. WAL disk on a
	// write); retryable.
	CodeInternal = "internal"
	// CodeUnavailable is a 503: shutting down / request canceled.
	CodeUnavailable = "unavailable"
	// CodeOverloaded is a 429: admission queue full; retry after backing off.
	CodeOverloaded = "overloaded"
	// CodeReadOnly is a 403: this server is a read replica; route the write
	// to the primary.
	CodeReadOnly = "read_only"
	// CodeConflict is a 409: a replication tail position's generation is
	// gone; the follower must re-bootstrap from the checkpoint.
	CodeConflict = "conflict"
)

// Options configure optional transport behavior; the zero value matches
// New's defaults.
type Options struct {
	// ReadRate caps admitted GET /rules, /recommend, and /correlate
	// requests per second on this instance (token bucket; 0 = unlimited).
	// Excess reads shed with 429 + Retry-After — the read-side counterpart
	// of the write admission queue. Each replica in a read fleet enforces its own cap,
	// so a replica protects its latency floor by shedding while the
	// fleet's aggregate read capacity grows with the replica count.
	ReadRate float64
	// Health overrides the /healthz probe (nil: srv.Health). The latch
	// paths it reports — diverged replicas, a failed WAL fsync — are
	// one-way states a handler test cannot cheaply enter for real.
	Health func() error
}

// api exposes one Server over HTTP.
type api struct {
	srv *annotadb.Server
	// streamCtx gates every /events stream: canceling it (graceful
	// shutdown) ends the streams so Shutdown's in-flight drain can finish.
	streamCtx context.Context
	// health backs /healthz; New wires srv.Health, tests substitute
	// latched outcomes.
	health func() error
	// reads, when non-nil, is the read admission gate on /rules and
	// /recommend.
	reads *rateGate
}

// New returns the HTTP handler serving srv. Canceling streamCtx ends every
// open /events stream, which graceful shutdown needs before its in-flight
// request drain can finish.
func New(srv *annotadb.Server, streamCtx context.Context) http.Handler {
	return NewWithOptions(srv, streamCtx, Options{})
}

// NewWithOptions is New with transport options.
func NewWithOptions(srv *annotadb.Server, streamCtx context.Context, opts Options) http.Handler {
	health := opts.Health
	if health == nil {
		health = srv.Health
	}
	a := &api{srv: srv, streamCtx: streamCtx, health: health, reads: newRateGate(opts.ReadRate)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /rules", a.rules)
	mux.HandleFunc("GET /recommend", a.recommend)
	mux.HandleFunc("GET /correlate", a.correlate)
	mux.HandleFunc("POST /annotations", a.annotations)
	mux.HandleFunc("POST /tuples", a.tuples)
	mux.HandleFunc("GET /stats", a.stats)
	mux.HandleFunc("GET /events", a.events)
	mux.HandleFunc("GET /healthz", a.healthz)
	mux.HandleFunc("GET /replication/checkpoint", a.replicationCheckpoint)
	mux.HandleFunc("GET /replication/log", a.replicationLog)
	return mux
}

// The wire forms of the token-form types are the types themselves: each is
// declared once, with its JSON tags, in the package that produces it, and
// the handlers encode what the facade returned. The names below remain for
// callers that decode responses.

// RuleJSON is the wire form of one rule, as it appears in /rules and
// /recommend: annotadb.Rule, with fields LHS, RHS, Kind, Support,
// Confidence, PatternCount, LHSCount, N.
type RuleJSON = annotadb.Rule

// RecommendationJSON is the wire form of one missing-annotation
// recommendation in the /recommend response: annotadb.Recommendation, with
// fields Tuple, Annotation, Rule.
type RecommendationJSON = annotadb.Recommendation

// ReportJSON is the wire form of an update report — the body of a
// successful POST /annotations or POST /tuples: annotadb.UpdateReport, with
// fields Operation, Applied, Skipped, Promoted, Demoted, Discovered,
// Dropped, Remined, DurationSeconds, Seq, SeqVector. Seq is the snapshot
// sequence current when the write was acknowledged: because updates publish
// before they ack, every read at or after Seq observes this write (SeqVector
// is the per-shard equivalent on sharded servers).
type ReportJSON = annotadb.UpdateReport

// CorrelateResultJSON is the wire form of one ranked candidate in the
// /correlate response: annotadb.CorrelateResult, with fields Token, Family,
// Count, Frequency, Confidence, Lift, ChiSquare, PValue.
type CorrelateResultJSON = annotadb.CorrelateResult

// EventCountsJSON is the wire form of one side of a rule's count change:
// annotadb.RuleCounts, with fields PatternCount, LHSCount, N, Support,
// Confidence.
type EventCountsJSON = annotadb.RuleCounts

// EventJSON is the wire form of one churn event (the SSE data: payload):
// annotadb.Event, with fields Cursor, Seq, SeqVector, Shard, Kind, Tier,
// Family, LHS, RHS, Old, New, From, To and the churn_anomaly payload
// WindowMillis, Count, Baseline, Related.
type EventJSON = annotadb.Event

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrorJSON is the wire form of the structured error schema.
type ErrorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]ErrorJSON{"error": {Code: code, Message: err.Error()}})
}

// WriteUpdateError maps write-path failures to statuses: shutdown and
// cancellation are availability problems (503, safe to retry elsewhere), a
// write to a read replica is a routing defect (403, go to the primary), an
// overloaded admission queue is backpressure (429 with a Retry-After hint —
// the write was shed, not applied), a journal failure is a server-side
// fault (500, the request was valid and may be retried), and everything
// else is a request defect (400). The Retry-After hint defaults to one
// second; WriteUpdateErrorRetry takes the server's derived hint.
func WriteUpdateError(w http.ResponseWriter, err error) {
	WriteUpdateErrorRetry(w, err, time.Second)
}

// WriteUpdateErrorRetry is WriteUpdateError with an explicit backoff hint
// for shed writes, normally the server's RetryAfter — about two admission
// waits, so clients back off proportionally to the configured batch and
// group-commit windows instead of synchronizing on a fixed constant.
func WriteUpdateErrorRetry(w http.ResponseWriter, err error, retry time.Duration) {
	switch {
	case errors.Is(err, annotadb.ErrServerClosed),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err)
	case errors.Is(err, annotadb.ErrFollower):
		writeError(w, http.StatusForbidden, CodeReadOnly, err)
	case errors.Is(err, annotadb.ErrOverloaded):
		w.Header().Set("Retry-After", formatRetryAfter(retry))
		writeError(w, http.StatusTooManyRequests, CodeOverloaded, err)
	case errors.Is(err, annotadb.ErrJournal):
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err)
	}
}

// formatRetryAfter renders a backoff hint in decimal seconds. RFC 9110
// Retry-After is integral, but rounding a 1ms batch window up to "1" would
// defeat the proportional backoff the hint exists for; our clients
// (annotload, followers) parse the fractional form, and integral-only
// parsers still read the leading digit as a sane whole-second hint.
func formatRetryAfter(d time.Duration) string {
	if d <= 0 {
		d = time.Second
	}
	return strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
}

// writeUpdateError maps a write failure using this server's derived
// Retry-After hint.
func (a *api) writeUpdateError(w http.ResponseWriter, err error) {
	WriteUpdateErrorRetry(w, err, a.srv.RetryAfter())
}

// rateGate is the read admission token bucket: refilled at rate tokens per
// second up to a small burst (50 ms worth), so admitted throughput tracks
// the configured cap on any window longer than the burst.
type rateGate struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newRateGate(rate float64) *rateGate {
	if rate <= 0 {
		return nil
	}
	burst := rate / 20
	if burst < 1 {
		burst = 1
	}
	return &rateGate{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// allow admits one read or returns the wait until a token is available.
func (g *rateGate) allow(now time.Time) (bool, time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if elapsed := now.Sub(g.last).Seconds(); elapsed > 0 {
		g.tokens = math.Min(g.burst, g.tokens+elapsed*g.rate)
		g.last = now
	}
	if g.tokens >= 1 {
		g.tokens--
		return true, 0
	}
	return false, time.Duration((1 - g.tokens) / g.rate * float64(time.Second))
}

// admitRead applies the read gate; a shed read answers 429 with the time
// until the next token as its Retry-After, mirroring the write path's
// proportional backoff hint.
func (a *api) admitRead(w http.ResponseWriter) bool {
	if a.reads == nil {
		return true
	}
	ok, retry := a.reads.allow(time.Now())
	if !ok {
		w.Header().Set("Retry-After", formatRetryAfter(retry))
		writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			errors.New("read capacity exhausted on this instance; retry or use another replica"))
	}
	return ok
}

// maxBodyBytes bounds update request bodies so an oversized payload cannot
// buffer unbounded memory; generous for real batches (a Figure 14 line is
// ~12 bytes, so this admits ~million-update batches).
const maxBodyBytes = 16 << 20

// writeBodyError distinguishes an over-limit body (413) from a malformed
// one (400).
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, err)
		return
	}
	writeError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Errorf("bad request body: %w", err))
}

func (a *api) rules(w http.ResponseWriter, r *http.Request) {
	if !a.admitRead(w) {
		return
	}
	rules := a.srv.Rules()
	// rules is the facade's per-generation cached slice, shared with every
	// concurrent reader: re-slice or copy it, never sort or write into it.
	if kind := r.URL.Query().Get("kind"); kind != "" {
		if kind != annotadb.DataToAnnotation && kind != annotadb.AnnotationToAnnotation {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Errorf("unknown kind %q", kind))
			return
		}
		filtered := rules[:0:0]
		for _, rl := range rules {
			if rl.Kind == kind {
				filtered = append(filtered, rl)
			}
		}
		rules = filtered
	}
	if limitStr := r.URL.Query().Get("limit"); limitStr != "" {
		limit, err := strconv.Atoi(limitStr)
		if err != nil || limit < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Errorf("bad limit %q", limitStr))
			return
		}
		if limit < len(rules) {
			rules = rules[:limit]
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(rules), "rules": rules})
}

func (a *api) recommend(w http.ResponseWriter, r *http.Request) {
	if !a.admitRead(w) {
		return
	}
	tupleStr := r.URL.Query().Get("tuple")
	if tupleStr == "" {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, errors.New("missing tuple query parameter (zero-based tuple position)"))
		return
	}
	idx, err := strconv.Atoi(tupleStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Errorf("bad tuple index %q", tupleStr))
		return
	}
	if idx < 0 {
		// Malformed input, not a miss: no negative index can ever exist.
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Errorf("tuple index must be non-negative, got %d", idx))
		return
	}
	if !a.seqBarrier(w, r) {
		return
	}
	recs, seq, err := a.srv.RecommendAt(idx)
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	body := map[string]any{"tuple": idx, "seq": seq.Seq, "count": len(recs), "recommendations": recs}
	if seq.Shards != nil {
		// Sharded: the per-shard snapshot sequence vector the answer was
		// assembled from.
		body["seq_vector"] = seq.Shards
	}
	writeJSON(w, http.StatusOK, body)
}

// seqBarrier applies the optional ?min_seq (+?wait_ms) read-your-writes
// barrier shared by /recommend and /correlate: the request waits until the
// advertised sequence reaches the seq the client's write was acknowledged
// at. On a primary the barrier is already satisfied (publish-before-ack); on
// a follower it waits for the replication watermark. Bounded by wait_ms
// (default 1s) so a stalled follower answers 503 instead of hanging until
// client disconnect. Reports whether the handler may proceed; on false the
// error response has been written.
func (a *api) seqBarrier(w http.ResponseWriter, r *http.Request) bool {
	v := r.URL.Query().Get("min_seq")
	if v == "" {
		return true
	}
	minSeq, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Errorf("bad min_seq %q", v))
		return false
	}
	wait := time.Second
	if wms := r.URL.Query().Get("wait_ms"); wms != "" {
		ms, err := strconv.Atoi(wms)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Errorf("bad wait_ms %q", wms))
			return false
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	err = a.srv.WaitSeq(ctx, minSeq)
	cancel()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable,
			fmt.Errorf("seq barrier %d not reached within %v: %w", minSeq, wait, err))
		return false
	}
	return true
}

// correlate answers an anchor query: the top-K annotations most strongly
// associated with ?anchor=, ranked by confidence then lift and filtered by
// the chi-square significance test (?k= and ?min_lift= tune the cut). The
// answer is assembled from one published snapshot generation — reported as
// seq (and seq_vector when sharded) — and honors the same ?min_seq barrier
// as /recommend, so a client can correlate against a follower without
// reading backwards past its own writes.
func (a *api) correlate(w http.ResponseWriter, r *http.Request) {
	if !a.admitRead(w) {
		return
	}
	q := r.URL.Query()
	cq, err := correlate.ParseQuery(q.Get("anchor"), q.Get("k"), q.Get("min_lift"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err)
		return
	}
	if !a.seqBarrier(w, r) {
		return
	}
	ans, seq, err := a.srv.Correlate(cq.Anchor, cq.K, cq.MinLift)
	if err != nil {
		status, code := correlateErrorStatus(err)
		writeError(w, status, code, err)
		return
	}
	body := map[string]any{
		"anchor":       ans.Anchor,
		"anchor_count": ans.AnchorCount,
		"n":            ans.N,
		"k":            cq.K,
		"min_lift":     cq.MinLift,
		"seq":          seq.Seq,
		"count":        len(ans.Results),
		"results":      ans.Results,
	}
	if seq.Shards != nil {
		body["seq_vector"] = seq.Shards
	}
	writeJSON(w, http.StatusOK, body)
}

// correlateErrorStatus maps a Server.Correlate failure to its response. The
// request was already validated, so the only client-attributable failure is
// an anchor the generation does not hold (404). Anything else is the
// server's fault and must surface as a 500, not hide among 4xx.
func correlateErrorStatus(err error) (status int, code string) {
	if errors.Is(err, annotadb.ErrUnknownAnchor) {
		return http.StatusNotFound, CodeNotFound
	}
	return http.StatusInternalServerError, CodeInternal
}

// decodeBody decodes a JSON write body into req. Unknown keys are rejected:
// a misspelled field would otherwise decode to its zero value and be applied
// (an update of tuple 0) and acknowledged.
func decodeBody(r *http.Request, req any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

type annotationsRequest struct {
	Updates []annotadb.AnnotationUpdate `json:"updates"`
	Remove  bool                        `json:"remove"`
}

func (a *api) annotations(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	ct := r.Header.Get("Content-Type")
	var (
		rep annotadb.UpdateReport
		err error
	)
	switch {
	case strings.HasPrefix(ct, "text/plain"):
		// The paper's Figure 14 batch format, 1-based tuple indexes.
		rep, err = a.srv.ApplyUpdateFile(r.Context(), r.Body)
	default:
		var req annotationsRequest
		if derr := decodeBody(r, &req); derr != nil {
			writeBodyError(w, derr)
			return
		}
		if req.Remove {
			rep, err = a.srv.RemoveAnnotations(r.Context(), req.Updates)
		} else {
			rep, err = a.srv.AddAnnotations(r.Context(), req.Updates)
		}
	}
	if err != nil {
		a.writeUpdateError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

type tuplesRequest struct {
	Tuples []annotadb.TupleSpec `json:"tuples"`
}

func (a *api) tuples(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req tuplesRequest
	if err := decodeBody(r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	rep, err := a.srv.AddTuples(r.Context(), req.Tuples)
	if err != nil {
		a.writeUpdateError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// stats encodes the facade's ServerStats by its JSON tags. The relation
// figures describe the published snapshot's generation, read from its frozen
// frequency table, so polling /stats never stalls the writer.
func (a *api) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.srv.Stats())
}

// replicationCheckpoint streams the primary's latest checkpoint file to a
// bootstrapping follower, with its generation and this process run's id in
// the headers. The head metadata and the streamed bytes come from one open
// descriptor, so a checkpoint installing mid-request cannot desync them.
func (a *api) replicationCheckpoint(w http.ResponseWriter, r *http.Request) {
	src, err := a.srv.ReplicationSource()
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	f, meta, err := src.OpenCheckpoint()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err)
		return
	}
	defer f.Close()
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(replica.HeaderEpoch, strconv.FormatUint(meta.Epoch, 10))
	h.Set(replica.HeaderRunID, src.RunID())
	w.WriteHeader(http.StatusOK)
	io.Copy(w, f) //nolint:errcheck // client disconnects surface as copy errors
}

// replicationLog pages WAL frames to a tailing follower. 200 carries zero
// or more whole frames plus the next cursor, conservative primary seq, and
// log end headers; 409 tells the follower its cursor is gone (trimmed by a
// checkpoint, or past the end) and it must re-bootstrap from the checkpoint.
func (a *api) replicationLog(w http.ResponseWriter, r *http.Request) {
	src, err := a.srv.ReplicationSource()
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Errorf("bad from cursor %q", q.Get("from")))
		return
	}
	var maxBytes int64
	if v := q.Get("max_bytes"); v != "" {
		if maxBytes, err = strconv.ParseInt(v, 10, 64); err != nil || maxBytes < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Errorf("bad max_bytes %q", v))
			return
		}
	}
	ch, err := src.Tail(from, maxBytes)
	h := w.Header()
	h.Set(replica.HeaderRunID, src.RunID())
	if errors.Is(err, replica.ErrConflict) {
		writeError(w, http.StatusConflict, CodeConflict, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err)
		return
	}
	h.Set("Content-Type", "application/octet-stream")
	h.Set(replica.HeaderNext, strconv.FormatUint(ch.Next, 10))
	h.Set(replica.HeaderSeq, strconv.FormatUint(ch.Seq, 10))
	h.Set(replica.HeaderEnd, strconv.FormatUint(ch.End, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(ch.Data) //nolint:errcheck
}

// healthz reports liveness and write-path health: 200 {"status":"ok"}
// while writes can proceed, 503 {"status":"degraded","reason":...} once
// the server latched an unrecoverable failure (diverged shard replicas, a
// WAL fsync failure). Reads keep serving from published snapshots while
// degraded; the probe tells load balancers to stop routing writes here
// until a restart recovers.
func (a *api) healthz(w http.ResponseWriter, r *http.Request) {
	if err := a.health(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "degraded",
			"reason": err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// events streams rule churn as Server-Sent Events. Resume: pass the last
// cursor seen as the Last-Event-ID header (the standard SSE reconnect
// behavior — every non-gap event carries id: <cursor>) or as ?from=C to
// start at cursor C inclusively; with neither, the stream starts live.
// Filters: repeatable family= and kind= parameters, and tier=valid or
// tier=candidate. A position older than retained history yields one
// event: gap frame, then the stream continues from the oldest retained
// event.
func (a *api) events(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opts := annotadb.SubscribeOptions{
		Families: q["family"],
		Kinds:    q["kind"],
		Tier:     q.Get("tier"),
	}
	if v := q.Get("from"); v != "" {
		from, err := stream.ParseCursor(v)
		if err != nil || from == 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Errorf("bad from cursor %q (cursors start at 1)", v))
			return
		}
		opts.FromSeq = from
	} else if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		// Per the SSE spec the client cannot clear Last-Event-ID once any
		// event set it, and EventSource replays whatever it last saw —
		// possibly an id another endpoint minted. An unparseable id is
		// therefore ignored (live tail), never a 400: rejecting it would
		// wedge the browser's reconnect loop forever, since every retry
		// carries the same header.
		if last, err := stream.ParseCursor(lei); err == nil {
			opts.FromSeq = last + 1
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeInternal, errors.New("response writer does not support streaming"))
		return
	}
	// The stream ends when the client disconnects or the server shuts down.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(a.streamCtx, cancel)
	defer stop()
	ch, err := a.srv.Subscribe(ctx, opts)
	if err != nil {
		if errors.Is(err, annotadb.ErrStreamDisabled) {
			writeError(w, http.StatusNotFound, CodeNotFound, err)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for ev := range ch {
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		// Gap events are synthetic and carry no id: a reconnect must resume
		// from the last real cursor, not from a per-subscriber artifact.
		if ev.Kind != annotadb.EventGap {
			fmt.Fprintf(w, "id: %d\n", ev.Cursor)
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data)
		// One flush per drained backlog, not per event: a publish delivers
		// its events together, and each flush is a syscall plus a wake-up
		// of the client.
		if len(ch) == 0 {
			flusher.Flush()
		}
	}
}
