// Package obs is the repo's zero-dependency observability layer
// (DESIGN.md §11): atomic counters and gauges, fixed-boundary latency
// histograms with one atomic counter per bucket, and cheap stage
// timers. A Registry names its
// instruments (convention: palu_<layer>_<name>, counters suffixed
// _total, nanosecond timers suffixed _ns), hands out each instrument
// exactly once per name (get-or-create, so several pipeline runs sharing
// a registry aggregate into the same instruments), and renders
// deterministic sorted snapshots through the JSON and Prometheus-style
// text exporters of export.go.
//
// The design pressure is the streaming hot path: instrumentation is
// attached at block/window granularity (never per packet), every
// instrument method is nil-receiver safe so a disabled configuration
// costs one predictable branch, and the root-level
// TestMetricsInstrumentCountPin holds every instrument of a fused serial
// archive replay at its exact block or window count.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is usable; a nil *Counter accepts and drops all updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (callers keep counters monotone; negative deltas belong on
// a Gauge).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is usable; a
// nil *Gauge accepts and drops all updates.
type Gauge struct {
	v atomic.Int64
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered instrument.
type entry struct {
	kind metricKind
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a named collection of instruments. Registration is
// get-or-create: asking twice for one name returns the same instrument,
// so independent subsystems (several pipeline runs, a reader and its
// cache) sharing a registry aggregate naturally. Asking for an existing
// name with a different type or different histogram boundaries panics —
// that is a wiring bug, not a runtime condition. All methods are safe
// for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// defaultRegistry is the process-global registry behind Default.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry: the one long-lived
// drivers export over HTTP and dump at end of run.
func Default() *Registry { return defaultRegistry }

// checkName enforces the naming convention: lowercase snake_case,
// beginning with a letter ("palu_stream_windows_total").
func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c == '_' && i > 0:
		case c >= '0' && c <= '9' && i > 0:
		default:
			panic(fmt.Sprintf("obs: invalid metric name %q (want lowercase snake_case)", name))
		}
	}
}

// lookup returns the entry for name, creating it with mk on first use.
func (r *Registry) lookup(name string, kind metricKind, mk func() *entry) *entry {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		e = mk()
		r.entries[name] = e
		return e
	}
	if e.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as a different type", name))
	}
	return e
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.lookup(name, kindCounter, func() *entry {
		return &entry{kind: kindCounter, help: help, c: &Counter{}}
	})
	return e.c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.lookup(name, kindGauge, func() *entry {
		return &entry{kind: kindGauge, help: help, g: &Gauge{}}
	})
	return e.g
}

// Histogram returns the named fixed-boundary histogram, registering it
// on first use. bounds are ascending inclusive upper bounds; an
// implicit +Inf bucket catches the overflow. Re-registering with
// different boundaries panics.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	e := r.lookup(name, kindHistogram, func() *entry {
		return &entry{kind: kindHistogram, help: help, h: newHistogram(bounds)}
	})
	if len(e.h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different boundaries", name))
	}
	for i, b := range bounds {
		if e.h.bounds[i] != b {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different boundaries", name))
		}
	}
	return e.h
}

// Timer returns a stage timer recording every nanosecond span into the
// named histogram (default latency boundaries). A companion counter
// <name without trailing _ns>_spans_total counts every Start.
func (r *Registry) Timer(name, help string) *Timer {
	h := r.Histogram(name, help, DefaultLatencyBounds())
	spans := r.Counter(spansName(name), "spans started for "+name)
	return &Timer{h: h, spans: spans}
}

// spansName derives the companion span counter name of a timer.
func spansName(name string) string {
	const suffix = "_ns"
	if len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix {
		name = name[:len(name)-len(suffix)]
	}
	return name + "_spans_total"
}

// Snapshot returns a deterministic point-in-time view of every
// registered instrument, sorted by name. Values are read metric by
// metric with atomic loads: a snapshot taken while writers are active
// is internally consistent per instrument but not across instruments
// (counters may be mid-update relative to each other) — exactness
// across instruments holds once the instrumented work has completed.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.entries))
	entries := make([]*entry, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		entries = append(entries, r.entries[name])
	}
	r.mu.Unlock()

	snap := Snapshot{Metrics: make([]Metric, 0, len(entries))}
	for i, e := range entries {
		m := Metric{Name: names[i], Help: e.help}
		switch e.kind {
		case kindCounter:
			m.Type = "counter"
			m.Value = e.c.Value()
		case kindGauge:
			m.Type = "gauge"
			m.Value = e.g.Value()
		case kindHistogram:
			m.Type = "histogram"
			m.Count, m.Sum, m.Buckets = e.h.snapshot()
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

// Timer records the duration of repeated stages into a histogram of
// nanoseconds. Start returns a Span; Span.Stop observes the elapsed
// time. A nil *Timer accepts Start and returns inert spans, so stripped
// configurations pay a single branch.
type Timer struct {
	h     *Histogram
	spans *Counter
}

// Span is one in-flight stage timing. The zero Span is inert.
type Span struct {
	t  *Timer
	t0 time.Time
}

// Start begins a span. A nil timer skips the clock read entirely.
func (t *Timer) Start() Span {
	if t == nil {
		return Span{}
	}
	t.spans.Inc()
	return Span{t: t, t0: time.Now()}
}

// Stop observes the span's elapsed nanoseconds. Stopping an inert span
// (zero value, nil timer) is a no-op; stopping twice records twice and
// is a caller bug.
func (s Span) Stop() {
	if s.t == nil {
		return
	}
	s.t.h.Observe(time.Since(s.t0).Nanoseconds())
}

// Hist exposes the timer's underlying histogram (nil for a nil timer).
func (t *Timer) Hist() *Histogram {
	if t == nil {
		return nil
	}
	return t.h
}

// Spans reports how many spans have been started.
func (t *Timer) Spans() int64 {
	if t == nil {
		return 0
	}
	return t.spans.Value()
}
