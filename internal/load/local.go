package load

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"annotadb"
	"annotadb/internal/httpapi"
	"annotadb/internal/workload"
)

// LocalOptions configure StartLocal's in-process server: the same
// construction paths cmd/annotserve uses (in-memory, in-memory sharded,
// or durable), seeded from a generated corpus instead of a dataset file.
type LocalOptions struct {
	// Corpus and Tuples describe the seed relation ("paper" × 2000 when
	// zero); Seed drives its generation.
	Corpus string
	Tuples int
	Seed   int64
	// Shards > 1 partitions the write path by annotation family.
	Shards int
	// Dir, when non-empty, makes the server durable (WAL + checkpoints in
	// Dir; reopening the same Dir recovers instead of re-seeding).
	Dir string
	// QueueDepth, BatchWindow, and FlushWindow tune the write path
	// (admission queue bound, admission wait at a full queue, WAL group
	// commit).
	QueueDepth  int
	BatchWindow time.Duration
	FlushWindow time.Duration
	// Events serves GET /events; RetainAllEvents disables event-segment
	// retention trimming so any cursor stays resumable (what a test that
	// replays the full event record needs).
	Events          bool
	RetainAllEvents bool
	// Followers boots this many read replicas behind the primary: each is
	// an annotadb.Follow server tailing the primary's replication endpoints,
	// behind its own httpapi loopback listener, listed in Local.ReadURLs.
	// Replication needs an unsharded durable primary, so Followers > 0
	// rejects Shards > 1 and — when Dir is empty — uses a temporary
	// directory that Close removes.
	Followers int
	// ReadRate caps admitted reads per second on each instance — primary
	// and every follower alike (httpapi.Options.ReadRate; 0 = unlimited).
	ReadRate float64
	// Correlate starts the churn-anomaly detector on the primary (and on
	// each follower, from its replicated stream); AnomalyWindow and
	// AnomalyThreshold tune it (annotadb.CorrelateOptions). GET /correlate
	// anchor queries are always served regardless.
	Correlate        bool
	AnomalyWindow    time.Duration
	AnomalyThreshold float64
	// MinSupport and MinConfidence are the mining thresholds (paper
	// defaults 0.4 / 0.8 when zero).
	MinSupport    float64
	MinConfidence float64
}

// Local is an in-process annotserve equivalent: the production Server
// behind the production internal/httpapi handler on a real loopback
// listener.
type Local struct {
	// Server is the serving core (for Stats, Durability, Subscribe).
	Server *annotadb.Server
	// URL is the base URL of the loopback listener.
	URL string
	// ReadURLs are the read endpoints in rotation order: the primary URL
	// followed by one URL per follower (just the primary when
	// LocalOptions.Followers was zero). Hand them to Target.ReadURLs.
	ReadURLs []string

	httpSrv     *http.Server
	ln          net.Listener
	stopStreams context.CancelFunc
	serveErr    chan error
	followers   []*localFollower
	ownsDir     string
}

// localFollower is one read replica: a Follow server behind its own
// loopback listener.
type localFollower struct {
	srv      *annotadb.Server
	url      string
	httpSrv  *http.Server
	ln       net.Listener
	serveErr chan error
}

// StartLocal boots an in-process server per the options. Close releases
// it; a non-empty Dir can then be reopened by a later StartLocal to
// exercise recovery.
func StartLocal(o LocalOptions) (*Local, error) {
	if o.Tuples <= 0 {
		o.Tuples = 2000
	}
	ownsDir := ""
	if o.Followers > 0 {
		if o.Shards > 1 {
			return nil, errors.New("load: followers require an unsharded durable primary")
		}
		if o.Dir == "" {
			dir, err := os.MkdirTemp("", "annotload-replica-")
			if err != nil {
				return nil, err
			}
			o.Dir, ownsDir = dir, dir
		}
	}
	fail := func(err error) (*Local, error) {
		if ownsDir != "" {
			os.RemoveAll(ownsDir) //nolint:errcheck
		}
		return nil, err
	}
	if o.MinSupport == 0 {
		o.MinSupport = 0.4
	}
	if o.MinConfidence == 0 {
		o.MinConfidence = 0.8
	}
	opts := annotadb.Options{MinSupport: o.MinSupport, MinConfidence: o.MinConfidence}
	retain := 0
	if o.RetainAllEvents {
		retain = -1
	}
	sopts := annotadb.ServeOptions{
		BatchWindow: o.BatchWindow,
		QueueDepth:  o.QueueDepth,
		Shards:      o.Shards,
		Stream: annotadb.StreamOptions{
			Disabled:       !o.Events,
			RetainSegments: retain,
			FlushWindow:    o.FlushWindow,
		},
		Correlate: annotadb.CorrelateOptions{
			Anomalies:        o.Correlate && o.Events,
			AnomalyWindow:    o.AnomalyWindow,
			AnomalyThreshold: o.AnomalyThreshold,
		},
	}
	seedDataset := func() (*annotadb.Dataset, error) {
		stream, err := workload.NewStream(o.Corpus, o.Seed)
		if err != nil {
			return nil, err
		}
		ds := annotadb.NewDataset()
		for i, tu := range stream.Base(o.Tuples) {
			if _, err := ds.AddTuple(tu.Values, tu.Annotations); err != nil {
				return nil, fmt.Errorf("load: seed tuple %d: %w", i, err)
			}
		}
		return ds, nil
	}
	var (
		srv *annotadb.Server
		err error
	)
	switch {
	case o.Dir != "":
		var ds *annotadb.Dataset
		if !annotadb.HasDurableState(o.Dir) {
			if ds, err = seedDataset(); err != nil {
				return fail(err)
			}
		} else {
			ds = annotadb.NewDataset()
		}
		eng, _, derr := annotadb.OpenDurableDataset(ds, opts, annotadb.DurabilityOptions{
			Dir:         o.Dir,
			Shards:      o.Shards,
			FlushWindow: o.FlushWindow,
		})
		if derr != nil {
			return fail(derr)
		}
		srv, err = annotadb.NewServer(eng, sopts)
	case o.Shards > 1:
		var ds *annotadb.Dataset
		if ds, err = seedDataset(); err != nil {
			return nil, err
		}
		srv, err = annotadb.NewShardedServer(ds, opts, sopts)
	default:
		var ds *annotadb.Dataset
		if ds, err = seedDataset(); err != nil {
			return nil, err
		}
		var eng *annotadb.Engine
		eng, err = annotadb.NewEngine(ds, opts)
		if err == nil {
			srv, err = annotadb.NewServer(eng, sopts)
		}
	}
	if err != nil {
		return fail(err)
	}

	streamCtx, stopStreams := context.WithCancel(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stopStreams()
		closeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Close(closeCtx)
		return fail(err)
	}
	hs := &http.Server{Handler: httpapi.NewWithOptions(srv, streamCtx, httpapi.Options{ReadRate: o.ReadRate})}
	l := &Local{
		Server:      srv,
		URL:         "http://" + ln.Addr().String(),
		httpSrv:     hs,
		ln:          ln,
		stopStreams: stopStreams,
		serveErr:    make(chan error, 1),
		ownsDir:     ownsDir,
	}
	go func() { l.serveErr <- hs.Serve(ln) }()

	l.ReadURLs = []string{l.URL}
	for i := 0; i < o.Followers; i++ {
		f, ferr := startLocalFollower(l.URL, opts, sopts, o.ReadRate, streamCtx)
		if ferr != nil {
			closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = l.Close(closeCtx)
			return nil, fmt.Errorf("load: start follower %d: %w", i, ferr)
		}
		l.followers = append(l.followers, f)
		l.ReadURLs = append(l.ReadURLs, f.url)
	}
	return l, nil
}

// startLocalFollower boots one read replica of the primary at primaryURL:
// annotadb.Follow with a tight poll (the harness wants convergence well
// inside a run's duration) behind the production handler on its own
// loopback listener.
func startLocalFollower(primaryURL string, opts annotadb.Options, sopts annotadb.ServeOptions, readRate float64, streamCtx context.Context) (*localFollower, error) {
	srv, err := annotadb.Follow(opts, sopts, annotadb.FollowOptions{
		Primary:    primaryURL,
		Poll:       5 * time.Millisecond,
		MaxBackoff: 500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Close(closeCtx)
		return nil, err
	}
	f := &localFollower{
		srv:      srv,
		url:      "http://" + ln.Addr().String(),
		httpSrv:  &http.Server{Handler: httpapi.NewWithOptions(srv, streamCtx, httpapi.Options{ReadRate: readRate})},
		ln:       ln,
		serveErr: make(chan error, 1),
	}
	go func() { f.serveErr <- f.httpSrv.Serve(ln) }()
	return f, nil
}

// Close shuts the server down the way cmd/annotserve does: event streams
// first (they never end on their own), then the followers (projections of
// the primary — closing them cannot lose writes), then in-flight HTTP
// draining, then the serving core (queued update batches drain; a durable
// server writes its final checkpoint).
func (l *Local) Close(ctx context.Context) error {
	l.stopStreams()
	var followerErr error
	for _, f := range l.followers {
		if err := f.httpSrv.Shutdown(ctx); err != nil && followerErr == nil {
			followerErr = err
		}
		if err := f.srv.Close(ctx); err != nil && followerErr == nil {
			followerErr = err
		}
		<-f.serveErr
	}
	shutdownErr := l.httpSrv.Shutdown(ctx)
	closeErr := l.Server.Close(ctx)
	<-l.serveErr
	if l.ownsDir != "" {
		if err := os.RemoveAll(l.ownsDir); err != nil && closeErr == nil {
			closeErr = err
		}
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	if closeErr != nil {
		return closeErr
	}
	return followerErr
}
