package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// The readers below are for these tests; the product reads every
// instrument through Registry.Snapshot.

// Get returns the named metric of the snapshot.
func (s Snapshot) Get(name string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Names returns the metric names in snapshot (sorted) order.
func (s Snapshot) Names() []string {
	out := make([]string, len(s.Metrics))
	for i, m := range s.Metrics {
		out[i] = m.Name
	}
	return out
}

// Count returns the total number of observations: the sum of the
// buckets.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.cnts {
		n += h.cnts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
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

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("palu_test_events_total", "events")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("palu_test_depth", "depth")
	g.Add(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	// Get-or-create: same name yields the same instrument.
	if r.Counter("palu_test_events_total", "events") != c {
		t.Fatal("re-registering a counter returned a different instrument")
	}
	if r.Gauge("palu_test_depth", "depth") != g {
		t.Fatal("re-registering a gauge returned a different instrument")
	}
}

func TestNilInstrumentsAreInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tm *Timer
	c.Inc()
	c.Add(5)
	g.Add(1)
	h.Observe(3)
	sp := tm.Start()
	sp.Stop()
	Span{}.Stop()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || tm.Spans() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if tm.Hist() != nil {
		t.Fatal("nil timer should expose a nil histogram")
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}

func TestRegistryRejectsBadWiring(t *testing.T) {
	r := NewRegistry()
	r.Counter("palu_test_total", "")
	mustPanic(t, "type conflict", func() { r.Gauge("palu_test_total", "") })
	mustPanic(t, "empty name", func() { r.Counter("", "") })
	mustPanic(t, "uppercase name", func() { r.Counter("Palu_test", "") })
	mustPanic(t, "leading digit", func() { r.Counter("1palu", "") })
	mustPanic(t, "leading underscore", func() { r.Counter("_palu", "") })
	mustPanic(t, "space in name", func() { r.Counter("palu test", "") })
	r.Histogram("palu_test_h", "", []int64{1, 2, 3})
	mustPanic(t, "boundary conflict", func() { r.Histogram("palu_test_h", "", []int64{1, 2}) })
	mustPanic(t, "boundary value conflict", func() { r.Histogram("palu_test_h", "", []int64{1, 2, 4}) })
	mustPanic(t, "descending bounds", func() { r.Histogram("palu_test_desc", "", []int64{3, 2}) })
}

// TestHistogramBucketBoundaries pins le semantics at the edges: a value
// equal to a bound lands in that bound's bucket, one past it in the
// next, negatives in the first, and MaxInt64 in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("palu_test_edges", "", []int64{10, 100, 1000})
	for _, v := range []int64{math.MinInt64, -1, 0, 10, 11, 100, 101, 1000, 1001, math.MaxInt64} {
		h.Observe(v)
	}
	_, _, buckets := h.snapshot()
	if len(buckets) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(buckets))
	}
	// Cumulative: <=10 holds MinInt64, -1, 0, 10; <=100 adds 11, 100;
	// <=1000 adds 101, 1000; +Inf adds 1001 and MaxInt64.
	wantCum := []int64{4, 6, 8, 10}
	for i, want := range wantCum {
		if buckets[i].Count != want {
			t.Errorf("bucket %d (le %d): cumulative count %d, want %d",
				i, buckets[i].UpperBound, buckets[i].Count, want)
		}
	}
	if buckets[3].UpperBound != math.MaxInt64 {
		t.Errorf("overflow bucket bound = %d, want MaxInt64", buckets[3].UpperBound)
	}
	if got := h.Count(); got != 10 {
		t.Errorf("count = %d, want 10", got)
	}
	// Sum includes extreme values; just pin that it reads coherently
	// once writes stopped: re-summing is stable.
	if h.Sum() != h.Sum() {
		t.Error("sum not stable after writes stopped")
	}
}

// TestTimerSpans: every span is counted and every span is observed, and
// the companion span counter is a registered metric.
func TestTimerSpans(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("palu_test_stage_ns", "")
	for i := 0; i < 4; i++ {
		sp := tm.Start()
		time.Sleep(time.Microsecond)
		sp.Stop()
	}
	if got := tm.Spans(); got != 4 {
		t.Fatalf("spans = %d, want 4", got)
	}
	if got := tm.Hist().Count(); got != 4 {
		t.Fatalf("observations = %d, want 4 (one per span)", got)
	}
	if tm.Hist().Sum() <= 0 {
		t.Fatal("timer sum should be positive after sleeping spans")
	}
	snap := r.Snapshot()
	m, ok := snap.Get("palu_test_stage_spans_total")
	if !ok || m.Value != 4 {
		t.Fatalf("span counter metric = %+v (ok=%v), want value 4", m, ok)
	}
}

// TestConcurrentRegistryUse is the race-detector test: parallel
// increments on every instrument type while snapshots are being taken.
// Run under -race (CI does) to prove hot-path updates and
// snapshot-while-writing are data-race free; counts are verified exact
// after the writers join.
func TestConcurrentRegistryUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("palu_race_total", "")
	g := r.Gauge("palu_race_depth", "")
	h := r.Histogram("palu_race_hist", "", DefaultLatencyBounds())
	tm := r.Timer("palu_race_stage_ns", "")

	const (
		goroutines = 8
		perG       = 5000
	)
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot reader races the writers.
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			if len(snap.Metrics) == 0 {
				t.Error("snapshot lost all metrics")
				return
			}
			// Histogram internal consistency: the +Inf cumulative bucket
			// never exceeds a count read after it.
			if m, ok := snap.Get("palu_race_hist"); ok && len(m.Buckets) > 0 {
				if inf := m.Buckets[len(m.Buckets)-1].Count; inf > h.Count() {
					t.Errorf("+Inf bucket %d exceeds later count %d", inf, h.Count())
					return
				}
			}
		}
	}()
	for i := 0; i < goroutines; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i*perG + j))
				sp := tm.Start()
				sp.Stop()
				// Concurrent get-or-create must also be safe.
				if j%1000 == 0 {
					r.Counter("palu_race_total", "")
				}
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	const want = goroutines * perG
	if got := c.Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := g.Value(); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	if got := h.Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got := tm.Spans(); got != want {
		t.Errorf("timer spans = %d, want %d", got, want)
	}
	if got := tm.Hist().Count(); got != want {
		t.Errorf("timer observations = %d, want %d", got, want)
	}
}

func TestDefaultRegistryIsAProcessSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() must return one process-global registry")
	}
	c := Default().Counter("palu_obs_selftest_total", "")
	c.Inc()
	if got := Default().Counter("palu_obs_selftest_total", "").Value(); got < 1 {
		t.Fatalf("default registry did not persist the counter, value %d", got)
	}
}
