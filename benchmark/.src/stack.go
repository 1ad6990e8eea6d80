package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"annotadb"
	"annotadb/internal/httpapi"
	"annotadb/internal/workload"
)

// fsyncPolicy is the WAL policy of the durable workload: every acknowledged
// write is fsync'd, per-batch (annotserve's default, no group-commit window).
const fsyncPolicy = "always"

// stack is the production serving stack in-process: the root Server behind
// the internal/httpapi handler on a loopback listener, the way annotserve
// and load.StartLocal assemble it.
type stack struct {
	srv *annotadb.Server
	url string

	httpSrv     *http.Server
	stopStreams context.CancelFunc
	serveErr    chan error
}

func miningOptions(sp spec) annotadb.Options {
	return annotadb.Options{MinSupport: sp.minSup, MinConfidence: sp.minConf}
}

// serveOptions are annotserve's defaults: 1 ms batch window, default queue
// depth, the event stream on.
func serveOptions(sp spec) annotadb.ServeOptions {
	return annotadb.ServeOptions{BatchWindow: time.Millisecond, Shards: sp.shards}
}

// durabilityOptions are annotserve's defaults except that the automatic
// checkpoint policies are off: a size-triggered checkpoint in the middle of
// a fixed op list would make runs differ by whether it fired.
func durabilityOptions(dir string) annotadb.DurabilityOptions {
	return annotadb.DurabilityOptions{Dir: dir, Fsync: fsyncPolicy, CheckpointBytes: -1}
}

// openServer builds the workload's Server over ds. A durable server
// bootstraps dir when it is empty and recovers from it otherwise (ds is
// ignored then).
func openServer(sp spec, ds *annotadb.Dataset, dir string) (*annotadb.Server, error) {
	switch {
	case sp.durable:
		eng, _, err := annotadb.OpenDurableDataset(ds, miningOptions(sp), durabilityOptions(dir))
		if err != nil {
			return nil, err
		}
		return annotadb.NewServer(eng, serveOptions(sp))
	case sp.shards > 1:
		return annotadb.NewShardedServer(ds, miningOptions(sp), serveOptions(sp))
	default:
		eng, err := annotadb.NewEngine(ds, miningOptions(sp))
		if err != nil {
			return nil, err
		}
		return annotadb.NewServer(eng, serveOptions(sp))
	}
}

// listen puts srv behind the production handler on a loopback listener and
// returns once /healthz answers 200.
func listen(srv *annotadb.Server) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	streamCtx, stop := context.WithCancel(context.Background())
	st := &stack{
		srv:         srv,
		url:         "http://" + ln.Addr().String(),
		httpSrv:     &http.Server{Handler: httpapi.New(srv, streamCtx)},
		stopStreams: stop,
		serveErr:    make(chan error, 1),
	}
	go func() { st.serveErr <- st.httpSrv.Serve(ln) }()
	resp, err := http.Get(st.url + "/healthz")
	if err == nil {
		drainBody(resp)
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		st.close() //nolint:errcheck
		return nil, err
	}
	return st, nil
}

// bootStack is one set-up: corpus generation, bootstrap mine, server and
// listener start. It returns the stream (positioned after the base corpus)
// and the base so the caller can generate the op list from them.
func bootStack(sp spec, seed int64, dir string) (*stack, workload.Stream, []workload.TokenTuple, error) {
	stream, err := workload.NewStream(sp.corpus, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	base := stream.Base(sp.tuples)
	ds, err := buildDataset(base)
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := openServer(sp, ds, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := listen(srv)
	if err != nil {
		closeServer(srv) //nolint:errcheck
		return nil, nil, nil, err
	}
	return st, stream, base, nil
}

func closeServer(srv *annotadb.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Close(ctx)
}

// close shuts down like annotserve: streams, in-flight HTTP, then the core
// (a durable server writes its final checkpoint).
func (st *stack) close() error {
	st.stopStreams()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownErr := st.httpSrv.Shutdown(ctx)
	closeErr := closeServer(st.srv)
	<-st.serveErr
	http.DefaultClient.CloseIdleConnections()
	if shutdownErr != nil {
		return shutdownErr
	}
	return closeErr
}

// copyDir copies the regular files of a data directory tree: the crash
// image of a quiescent durable server (seed checkpoint plus full WAL tail).
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
