// Command annotserve serves a mined, incrementally maintained rule set over
// HTTP/JSON: the paper's discover–maintain–exploit loop as an online system
// instead of a batch menu. Rules, tuple contents, and recommendations are
// all answered from one immutable snapshot that is republished after every
// coalesced update batch — a recommendation can never pair a tuple with
// rules from a different generation — and /recommend and /stats report the
// snapshot sequence (seq) they were served from, so reads stay fast and
// consistent while annotation batches stream in.
//
// Usage:
//
//	annotserve -data dataset.txt [-addr :8080] [-min-support 0.4]
//	           [-min-confidence 0.8] [-algorithm apriori]
//	           [-batch-window 1ms] [-queue-depth 256] [-shards 4]
//	           [-data-dir ./annotdata] [-fsync always]
//	           [-flush-window 1ms] [-max-group-bytes 1048576]
//	           [-checkpoint-bytes 4194304] [-checkpoint-age 0]
//	           [-correlate] [-anomaly-window 5s] [-anomaly-threshold 4]
//	annotserve -follow http://primary:8080 [-addr :8081]
//	           [-min-support 0.4] [-min-confidence 0.8]
//
// With -follow the process is a read replica: it bootstraps from the
// primary's /replication/checkpoint, tails its WAL via /replication/log,
// and serves /rules, /recommend, /events, and /stats from its own local
// snapshots with bounded staleness. Writes answer 403 (route them to the
// primary); /recommend?min_seq=S waits until the primary seq S's writes
// are visible (read-your-writes). The mining flags must match the
// primary's; -data, -data-dir, and -shards do not apply.
//
// With -data-dir the serving state is durable: every update batch is
// write-ahead logged before it is applied and the full mined state is
// checkpointed on a size/age policy, so a restart recovers from
// checkpoint + log tail instead of re-mining the dataset (-data is then
// only needed the first time, to seed an empty directory).
//
// With -shards N the write path is partitioned by annotation family
// (the token prefix before the first ":", or the whole token): each shard
// keeps its own relation replica, engine, writer loop, and — under
// -data-dir — its own WAL and checkpoints in shard-NN subdirectories tied
// together by a manifest that pins the shard count. Annotation batches for
// different families commit in parallel; /stats gains a per-shard section
// and /recommend reports the per-shard seq_vector it answered from.
// Annotation-to-annotation correlations are discovered within a family —
// see the sharding section of ARCHITECTURE.md and README.md here.
//
// Endpoints (see README.md in this directory for curl examples and the
// error schema):
//
//	GET  /rules        current rules (?kind=, ?limit=)
//	GET  /recommend    ?tuple=N (zero-based) — missing-annotation
//	                   recommendations for one tuple, tagged with the
//	                   snapshot seq they came from; negative N is 400,
//	                   beyond-the-snapshot N is 404
//	GET  /correlate    ?anchor=<token> — top-K annotations associated with
//	                   the anchor (annotation or data value), ranked by
//	                   confidence and lift, chi-square significance filtered
//	                   (?k=, ?min_lift=); an anchor the snapshot has never
//	                   seen is 404
//	POST /annotations  apply an annotation batch: JSON
//	                   {"updates":[{"tuple":0,"annotation":"Annot_3"}]}
//	                   with optional "remove":true, or a text/plain body in
//	                   the paper's Figure 14 format ("150:Annot_3", 1-based)
//	POST /tuples       append tuples: JSON
//	                   {"tuples":[{"values":["28","85"],"annotations":[]}]}
//	GET  /stats        serving, dataset, and durability statistics
//	GET  /events       rule-churn event stream (Server-Sent Events):
//	                   promotions, demotions, additions, retirements, and
//	                   confidence changes, cursor-addressed for resume via
//	                   Last-Event-ID (?from=, ?family=, ?kind=, ?tier=
//	                   filter; durable servers retain rotated history so
//	                   resume survives a clean restart)
//	GET  /healthz      health probe: 200 ok, or 503 degraded once the
//	                   server latched an unrecoverable write-path failure
//	                   (diverged shard replicas, WAL fsync failure)
//
// Errors are structured JSON: {"error":{"code":"...","message":"..."}}.
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// finish, queued update batches drain, a durable server writes a final
// checkpoint, and the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"annotadb"
	"annotadb/internal/httpapi"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "annotserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("annotserve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		data          = fs.String("data", "", "dataset file in the paper's Figure 4 format (required)")
		minSupport    = fs.Float64("min-support", 0.4, "minimum rule support α")
		minConfidence = fs.Float64("min-confidence", 0.8, "minimum rule confidence β")
		algorithm     = fs.String("algorithm", "apriori", "mining algorithm: apriori or fpgrowth")
		batchWindow   = fs.Duration("batch-window", time.Millisecond, "how long a write waits for a slot in a full admission queue before it is shed with 429, and the base of the Retry-After hint; the writer never waits on it")
		queueDepth    = fs.Int("queue-depth", 0, "bounded admission queue depth per writer; a full queue sheds writes with 429 after one batch window (0 = default)")
		recMinConf    = fs.Float64("rec-min-confidence", 0, "extra confidence filter on recommendation rules")
		recMinSup     = fs.Float64("rec-min-support", 0, "extra support filter on recommendation rules")
		recLimit      = fs.Int("rec-limit", 0, "cap recommendations per query (0 = unbounded)")
		drainTimeout  = fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
		dataDir       = fs.String("data-dir", "", "durable store directory (WAL + checkpoints); empty serves in memory only")
		shards        = fs.Int("shards", 1, "partition the write path into this many annotation-family shards (parallel writers; pinned by the durable manifest)")
		fsyncPolicy   = fs.String("fsync", "always", "WAL fsync policy: always, interval, or never")
		fsyncInterval = fs.Duration("fsync-interval", 0, "fsync cadence under -fsync interval (0 = 100ms)")
		flushWindow   = fs.Duration("flush-window", 0, "WAL group-commit window under -fsync always: one fsync covers every batch in the window; acks still wait for it (0 = off, negative = group commit without linger); also the durable event log's background flush cadence")
		maxGroupBytes = fs.Int64("max-group-bytes", 0, "force the group-commit fsync once this many unsynced bytes accumulate (0 = 1MiB, negative uncaps)")
		ckptBytes     = fs.Int64("checkpoint-bytes", 0, "checkpoint when the WAL reaches this size (0 = 4MiB, negative disables)")
		ckptAge       = fs.Duration("checkpoint-age", 0, "checkpoint when the oldest un-checkpointed record is this old (0 disables)")
		walEncoding   = fs.String("wal-encoding", "binary", "WAL record encoding: binary or json")
		events        = fs.Bool("events", true, "serve the rule-churn event stream on GET /events")
		eventRing     = fs.Int("event-ring", 0, "in-memory churn-event ring capacity (0 = 1024)")
		eventSegBytes = fs.Int64("event-segment-bytes", 0, "rotate the durable event log at this segment size (0 = 1MiB)")
		eventRetain   = fs.Int("event-retain", 0, "sealed event segments retained for cursor resume (0 = 8, negative retains all)")
		follow        = fs.String("follow", "", "run as a read replica of this primary base URL (e.g. http://primary:8080); mining flags must match the primary's")
		followPoll    = fs.Duration("follow-poll", 0, "log tail interval while caught up with the primary (0 = 50ms)")
		readRate      = fs.Float64("read-rate", 0, "per-instance read admission cap in reads/s on GET /rules, /recommend, and /correlate; excess reads shed with 429 + Retry-After (0 = unlimited)")
		correlateFlag = fs.Bool("correlate", false, "run the churn-anomaly detector: watch per-family rule churn against an EWMA baseline and publish churn_anomaly events on /events (anchor queries on GET /correlate are always served)")
		anomalyWindow = fs.Duration("anomaly-window", 0, "churn-anomaly counting window under -correlate (0 = 5s)")
		anomalyThresh = fs.Float64("anomaly-threshold", 0, "spike multiplier over the EWMA baseline that makes a window anomalous under -correlate (0 = 4)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not an error
		}
		return err
	}
	if *follow != "" {
		if *data != "" || *dataDir != "" {
			return errors.New("-follow is exclusive with -data/-data-dir: a follower bootstraps from the primary")
		}
		if *shards > 1 {
			return errors.New("-follow serves unsharded; drop -shards")
		}
	} else if *data == "" && *dataDir == "" {
		return errors.New("missing required -data flag (or -data-dir with an existing checkpoint)")
	}
	if *follow == "" && *data == "" && !annotadb.HasDurableState(*dataDir) {
		// Without this guard a mistyped -data-dir would quietly bootstrap
		// and serve an empty dataset.
		return fmt.Errorf("data dir %s holds no checkpoint; pass -data to seed it", *dataDir)
	}

	opts := annotadb.Options{
		MinSupport:    *minSupport,
		MinConfidence: *minConfidence,
		Algorithm:     *algorithm,
	}
	sopts := annotadb.ServeOptions{
		BatchWindow: *batchWindow,
		QueueDepth:  *queueDepth,
		Shards:      *shards,
		Recommend: annotadb.RecommendOptions{
			MinConfidence: *recMinConf,
			MinSupport:    *recMinSup,
			Limit:         *recLimit,
		},
		Stream: annotadb.StreamOptions{
			Disabled:       !*events,
			Ring:           *eventRing,
			SegmentBytes:   *eventSegBytes,
			RetainSegments: *eventRetain,
			FlushWindow:    *flushWindow,
		},
		Correlate: annotadb.CorrelateOptions{
			Anomalies:        *correlateFlag,
			AnomalyWindow:    *anomalyWindow,
			AnomalyThreshold: *anomalyThresh,
		},
	}
	if *correlateFlag && !*events {
		return errors.New("-correlate needs the event stream; drop -events=false")
	}
	var (
		srv *annotadb.Server
		err error
	)
	if *follow != "" {
		srv, err = annotadb.Follow(opts, sopts, annotadb.FollowOptions{
			Primary: *follow,
			Poll:    *followPoll,
		})
		if err != nil {
			return err
		}
		rs := srv.Replication()
		fmt.Fprintf(stdout, "annotserve: following %s (epoch %d, run %s)\n", rs.Primary, rs.Epoch, rs.RunID)
	} else if *dataDir != "" {
		var (
			eng *annotadb.Engine
			rec annotadb.RecoveryReport
		)
		eng, rec, err = annotadb.OpenDurable(*data, opts, annotadb.DurabilityOptions{
			Dir:             *dataDir,
			Shards:          *shards,
			Fsync:           *fsyncPolicy,
			FsyncInterval:   *fsyncInterval,
			FlushWindow:     *flushWindow,
			MaxGroupBytes:   *maxGroupBytes,
			CheckpointBytes: *ckptBytes,
			CheckpointAge:   *ckptAge,
			Encoding:        *walEncoding,
		})
		if err != nil {
			return err
		}
		if rec.FromCheckpoint {
			fmt.Fprintf(stdout, "annotserve: recovered %s in %.3fs (%d log records replayed, torn tail: %v)\n",
				*dataDir, rec.DurationSeconds, rec.RecordsReplayed, rec.TornTail)
		} else {
			fmt.Fprintf(stdout, "annotserve: bootstrapped %s in %.3fs (first checkpoint written)\n",
				*dataDir, rec.DurationSeconds)
		}
		srv, err = annotadb.NewServer(eng, sopts)
		if err != nil {
			return err
		}
	} else if *shards > 1 {
		// In-memory sharded: partition the dataset directly, skipping the
		// full unsharded bootstrap mine an Engine would pay.
		var ds *annotadb.Dataset
		ds, err = annotadb.LoadDataset(*data)
		if err != nil {
			return err
		}
		srv, err = annotadb.NewShardedServer(ds, opts, sopts)
		if err != nil {
			return err
		}
	} else {
		var ds *annotadb.Dataset
		ds, err = annotadb.LoadDataset(*data)
		if err != nil {
			return err
		}
		var eng *annotadb.Engine
		eng, err = annotadb.NewEngine(ds, opts)
		if err != nil {
			return err
		}
		srv, err = annotadb.NewServer(eng, sopts)
		if err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	source := *data
	if *dataDir != "" {
		source = *dataDir
	}
	if *follow != "" {
		source = *follow + " (follower)"
	}
	st := srv.Stats()
	if srv.Sharded() {
		fmt.Fprintf(stdout, "annotserve: serving %s (%d tuples, %d rules, %d family shards) on http://%s\n",
			source, st.Tuples, st.RuleCount, srv.Shards(), ln.Addr())
	} else {
		fmt.Fprintf(stdout, "annotserve: serving %s (%d tuples, %d rules) on http://%s\n",
			source, st.Tuples, st.RuleCount, ln.Addr())
	}

	// SSE connections never finish on their own, so graceful Shutdown would
	// wait on them forever; streamCtx is canceled first, closing every
	// event stream before in-flight request draining starts.
	streamCtx, stopStreams := context.WithCancel(context.Background())
	defer stopStreams()
	hs := &http.Server{Handler: httpapi.NewWithOptions(srv, streamCtx, httpapi.Options{ReadRate: *readRate})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "annotserve: shutting down")
		stopStreams()
		shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		shutdownErr := hs.Shutdown(shCtx) // stop accepting, finish in-flight
		closeErr := srv.Close(shCtx)      // drain queued update batches
		<-serveErr                        // always http.ErrServerClosed here
		if shutdownErr != nil {
			return fmt.Errorf("shutdown: %w", shutdownErr)
		}
		return closeErr
	case err := <-serveErr:
		stopStreams()
		shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		_ = srv.Close(shCtx)
		return err
	}
}

// newHandler returns the HTTP handler serving srv; the implementation lives
// in internal/httpapi so load generators and integration suites can mount
// the identical API in-process.
func newHandler(srv *annotadb.Server, streamCtx context.Context) http.Handler {
	return httpapi.New(srv, streamCtx)
}

// newHandlerHealth is newHandler with an injectable health probe (the latch
// paths it reports — diverged replicas, a failed WAL fsync — are one-way
// states a handler test cannot cheaply enter for real).
func newHandlerHealth(srv *annotadb.Server, streamCtx context.Context, health func() error) http.Handler {
	return httpapi.NewWithOptions(srv, streamCtx, httpapi.Options{Health: health})
}

// Error codes of the structured error schema, aliased from internal/httpapi
// where the handler now lives (this package's tests assert on them).
const (
	codeInvalidArgument = httpapi.CodeInvalidArgument
	codeNotFound        = httpapi.CodeNotFound
	codeTooLarge        = httpapi.CodeTooLarge
	codeInternal        = httpapi.CodeInternal
	codeUnavailable     = httpapi.CodeUnavailable
	codeOverloaded      = httpapi.CodeOverloaded
)

// Wire-type and helper aliases for this package's tests, which predate the
// handler's move to internal/httpapi.
type (
	ruleJSON           = httpapi.RuleJSON
	recommendationJSON = httpapi.RecommendationJSON
	reportJSON         = httpapi.ReportJSON
	errorJSON          = httpapi.ErrorJSON
	eventJSON          = httpapi.EventJSON
)

// writeUpdateError maps write-path failures to HTTP statuses; see
// httpapi.WriteUpdateError.
func writeUpdateError(w http.ResponseWriter, err error) { httpapi.WriteUpdateError(w, err) }
