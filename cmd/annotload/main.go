// Command annotload is the macro load harness: an open/closed-loop HTTP
// load generator for annotserve-compatible servers.
//
// It drives a target with a configurable mix of GET /recommend reads,
// GET /correlate anchor queries, POST /annotations and POST /tuples
// writes, and long-lived SSE GET /events subscribers, honoring 429
// Retry-After with jittered backoff, and reports client-side p50/p99/max
// latency per endpoint, achieved vs offered throughput, shed counts, and
// SSE gap/resume counts.
//
// Usage:
//
//	annotload -target http://127.0.0.1:8080            # one closed-loop run
//	annotload -local -mode open -rate 500 -subscribers 4
//
// With -local the harness boots an in-process server (the production
// serving stack behind the production HTTP handler on a loopback
// listener) instead of requiring a running annotserve. The flags whose
// usage starts with "-local:" configure that server and are refused
// together with -target. A run prints its report as JSON to stdout (or
// -json).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"annotadb/internal/load"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "annotload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("annotload", flag.ContinueOnError)
	var (
		target   = fs.String("target", "", "base URL of a running server (e.g. http://127.0.0.1:8080)")
		local    = fs.Bool("local", false, "boot an in-process server instead of using -target")
		jsonPath = fs.String("json", "", "write the JSON report here (default stdout)")

		name        = fs.String("name", "adhoc", "scenario name")
		mode        = fs.String("mode", "closed", `"closed" (fixed workers) or "open" (fixed arrival rate)`)
		corpus      = fs.String("corpus", "paper", `traffic corpus: "paper", "metrics", or "linguistic"`)
		duration    = fs.Float64("duration", 5, "run duration in seconds")
		concurrency = fs.Int("concurrency", 8, "closed-loop worker count")
		rate        = fs.Float64("rate", 100, "open-loop offered arrival rate (req/s)")
		readFrac    = fs.Float64("reads", 0.80, "read (GET /recommend) fraction of the mix")
		annFrac     = fs.Float64("annotates", 0.15, "annotation write fraction of the mix")
		tupFrac     = fs.Float64("tuples-frac", 0.05, "tuple write fraction of the mix")
		corrRate    = fs.Float64("correlate-frac", 0, "anchor query (GET /correlate) fraction of the mix")
		subscribers = fs.Int("subscribers", 0, "long-lived SSE /events subscribers held open for the run")
		reconnect   = fs.Float64("subscriber-reconnect", 0, "drop+resume each subscriber on this period in seconds (0 = never)")
		batch       = fs.Int("batch", 16, "annotation updates per POST /annotations")
		tupleBatch  = fs.Int("tuple-batch", 4, "tuples per POST /tuples")
		retries     = fs.Int("retries", 2, "max 429 retries per write")
		backoff     = fs.Float64("max-backoff", 1, "Retry-After cap in seconds")
		seed        = fs.Int64("seed", 1, "workload seed (drives traffic content end to end)")

		tuples      = fs.Int("seed-tuples", 2000, "-local: seed relation size")
		followers   = fs.Int("followers", 0, "-local: read replicas tailing the primary; reads round-robin across primary and followers (needs a durable unsharded primary — empty -dir uses a temp dir)")
		readRate    = fs.Float64("read-rate", 0, "-local: per-instance read admission cap in reads/s on primary and each follower (0 = unlimited)")
		shards      = fs.Int("shards", 0, "-local: annotation-family shards (0/1 = unsharded)")
		dir         = fs.String("dir", "", "-local: durable data directory (empty = in-memory)")
		queueDepth  = fs.Int("queue-depth", 0, "-local: write admission queue depth (0 = default)")
		localEvents = fs.Bool("events", true, "-local: serve the SSE event stream")
		correlate   = fs.Bool("correlate", false, "-local: run the churn-anomaly detector (GET /correlate is always served)")
		anomWindow  = fs.Duration("anomaly-window", 0, "-local: churn-anomaly counting window under -correlate (0 = 5s)")
		anomThresh  = fs.Float64("anomaly-threshold", 0, "-local: spike multiplier over the EWMA baseline under -correlate (0 = 4)")
		minSupport  = fs.Float64("min-support", 0, "-local: mining support threshold (0 = paper default 0.4; metrics/linguistic corpora plant correlations nearer 0.05)")
		minConf     = fs.Float64("min-confidence", 0, "-local: mining confidence threshold (0 = paper default 0.8)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*target == "") == !*local {
		return fmt.Errorf("exactly one of -target or -local is required")
	}
	if *target != "" {
		var localOnly []string
		fs.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Usage, "-local:") {
				localOnly = append(localOnly, "-"+f.Name)
			}
		})
		if len(localOnly) > 0 {
			return fmt.Errorf("-local server flags cannot be used with -target: %s", strings.Join(localOnly, ", "))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tgt := load.Target{BaseURL: *target}
	var l *load.Local
	if *local {
		var err error
		l, err = load.StartLocal(load.LocalOptions{
			Corpus:           *corpus,
			Tuples:           *tuples,
			Seed:             *seed,
			Shards:           *shards,
			Dir:              *dir,
			Followers:        *followers,
			ReadRate:         *readRate,
			QueueDepth:       *queueDepth,
			Events:           *localEvents,
			Correlate:        *correlate,
			AnomalyWindow:    *anomWindow,
			AnomalyThreshold: *anomThresh,
			MinSupport:       *minSupport,
			MinConfidence:    *minConf,
		})
		if err != nil {
			return err
		}
		tgt = load.Target{BaseURL: l.URL, ReadURLs: l.ReadURLs}
	}

	sc := load.Scenario{
		Name:                       *name,
		Mode:                       *mode,
		Corpus:                     *corpus,
		DurationSeconds:            *duration,
		Concurrency:                *concurrency,
		Rate:                       *rate,
		ReadFraction:               *readFrac,
		AnnotateFraction:           *annFrac,
		TupleFraction:              *tupFrac,
		CorrelateRate:              *corrRate,
		Subscribers:                *subscribers,
		SubscriberReconnectSeconds: *reconnect,
		BatchSize:                  *batch,
		TupleBatchSize:             *tupleBatch,
		MaxRetries:                 *retries,
		MaxBackoffSeconds:          *backoff,
		Seed:                       *seed,
	}
	rep, runErr := load.Run(ctx, tgt, sc)
	if l != nil {
		if err := l.Close(context.Background()); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		return runErr
	}
	fmt.Fprintf(os.Stderr, "annotload: %s %s %.1fs — %d completed (%.1f req/s achieved, %.1f offered), %d shed, %d seq regressions\n",
		sc.Name, rep.Scenario.Mode, rep.DurationSeconds, rep.Completed, rep.AchievedRPS, rep.OfferedRPS, rep.TotalShed(), rep.SeqRegressions)
	return writeJSON(*jsonPath, rep)
}

func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
