package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanRec is one recorded span. Spans of one op share Op; Parent names the
// span of the rung above it in a ladder ("" for a top-level span).
type spanRec struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) span(name, parent string, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{
		Name: name, Parent: parent, Op: op,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
