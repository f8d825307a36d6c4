package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a traced run, in seconds since the
// tracer's origin. Layer names the program layer its self time is
// charged to; structural spans ("pass", "reissue") have none.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// tracer keeps a run's spans in memory until write. Scenarios parked on
// a shared replay run on their own goroutines, hence the lock.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	// overhead is the time spent inside start and end: the cost the
	// tracer adds to the traced pass.
	overhead time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) start(name, layer string, parent int) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Start: now.Sub(t.origin).Seconds()})
	t.overhead += time.Since(now)
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now.Sub(t.origin).Seconds()
	t.overhead += time.Since(now)
}

// stage runs fn under one span charged to layer.
func (t *tracer) stage(layer string, parent int, fn func() error) error {
	id := t.start(layer, layer, parent)
	defer t.end(id)
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", layer, err)
	}
	return nil
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
