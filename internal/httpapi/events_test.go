package httpapi

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"annotadb"
)

// flushCounter is an http.ResponseWriter that counts Flush calls. The first
// Flush (the one after the SSE header) blocks until release is closed, so a
// test can hold the handler while the stream buffers events for it.
type flushCounter struct {
	header        http.Header
	mu            sync.Mutex
	body          bytes.Buffer
	flushes       atomic.Int32
	headerFlushed chan struct{}
	release       chan struct{}
}

func newFlushCounter() *flushCounter {
	return &flushCounter{
		header:        http.Header{},
		headerFlushed: make(chan struct{}),
		release:       make(chan struct{}),
	}
}

func (w *flushCounter) Header() http.Header { return w.header }
func (w *flushCounter) WriteHeader(int)     {}

func (w *flushCounter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(p)
}

func (w *flushCounter) Flush() {
	if w.flushes.Add(1) == 1 {
		close(w.headerFlushed)
		<-w.release
	}
}

// TestEventsFlushOncePerDrainedBacklog pins the SSE flush policy: the handler
// flushes when its subscription has nothing more buffered, not after every
// event, so one publish of k events costs one flush after the header's.
func TestEventsFlushOncePerDrainedBacklog(t *testing.T) {
	ds := annotadb.NewDataset()
	for _, tu := range goldenTuples {
		if _, err := ds.AddTuple(tu.Values, tu.Annotations); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := annotadb.NewShardedServer(ds, annotadb.Options{MinSupport: 0.3, MinConfidence: 0.7},
		annotadb.ServeOptions{BatchWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer srv.Close(closeCtx) //nolint:errcheck // closed below; this covers early failures

	w := newFlushCounter()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		New(srv, context.Background()).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/events", nil))
	}()
	select {
	case <-w.headerFlushed: // subscribed, and held in the header flush
	case <-time.After(5 * time.Second):
		t.Fatal("handler never flushed the SSE header")
	}

	before := srv.StreamStats().EventsPublished
	if _, err := srv.AddAnnotations(context.Background(), []annotadb.AnnotationUpdate{
		{Tuple: 5, Annotation: "Annot_q:1"}, {Tuple: 6, Annotation: "Annot_q:1"},
	}); err != nil {
		t.Fatal(err)
	}
	k := srv.StreamStats().EventsPublished - before
	if k < 2 {
		t.Fatalf("the write published %d events; the test needs a publish of several", k)
	}
	// Closing the server ends the subscription once it has buffered every
	// published event, so the handler finds all k waiting when released.
	if err := srv.Close(closeCtx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.StreamStats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never finished delivering")
		}
		time.Sleep(time.Millisecond)
	}
	close(w.release)
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after the stream closed")
	}

	// Every live frame opens with its id line, so each event line follows a
	// newline.
	if got := bytes.Count(w.body.Bytes(), []byte("\nevent: ")); got != int(k) {
		t.Fatalf("%d frames written, want %d:\n%s", got, k, w.body.Bytes())
	}
	if got := w.flushes.Load(); got != 2 {
		t.Errorf("%d flushes for one publish of %d events, want 2 (the header, then one per drained backlog)", got, k)
	}
}
