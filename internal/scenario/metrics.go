package scenario

// Scenario-engine observability (DESIGN.md §11). A Metrics bundle
// instruments the suite's worker pool (per-scenario spans, worker
// occupancy, failure counts), mirrors the window-cache counters into
// the registry, counts value-memo hits and misses, and carries the
// stream and tracestore bundles the engine injects into every inner
// pipeline and archive codec and the fit bundle its scenarios' fits
// report to — so one registry snapshot covers the whole stack of a
// suite run.

import (
	"fmt"
	"strings"
	"time"

	"hybridplaw/internal/model"
	"hybridplaw/internal/obs"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/tracestore"
)

// Metrics holds the engine's instruments plus the nested stream and
// PTRC bundles, all registered against one registry. A nil *Metrics
// disables instrumentation.
type Metrics struct {
	// Runs counts scenarios executed; Failures counts executions that
	// returned an error or panicked.
	Runs     *obs.Counter
	Failures *obs.Counter

	// RunTime spans one scenario execution end to end.
	RunTime *obs.Timer

	// WorkersBusy is the number of scenario workers currently running.
	WorkersBusy *obs.Gauge

	// Cache counters mirror CacheStats into the registry.
	CacheHits            *obs.Counter
	CacheMisses          *obs.Counter
	CacheRecordedPackets *obs.Counter
	CacheReplayedPackets *obs.Counter

	// MemoHits counts value-memo lookups served by a finished or
	// in-flight compute; MemoMisses counts the lookups that computed.
	MemoHits   *obs.Counter
	MemoMisses *obs.Counter

	// Stream and Trace are the nested bundles the engine injects into
	// inner pipelines and archive codecs; Fit is the fit layer's, which
	// scenarios take from Context.FitMetrics.
	Stream *stream.Metrics
	Trace  *tracestore.Metrics
	Fit    *model.Metrics
}

// NewMetrics registers the scenario instrument set (plus the nested
// stream, PTRC and fit sets) against reg — the process default registry if
// nil — and returns the bundle.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &Metrics{
		Runs: reg.Counter("palu_scenario_runs_total",
			"scenarios executed"),
		Failures: reg.Counter("palu_scenario_failures_total",
			"scenarios that failed or panicked"),
		RunTime: reg.Timer("palu_scenario_run_ns",
			"scenario execution time"),
		WorkersBusy: reg.Gauge("palu_scenario_workers_busy",
			"scenario workers currently running"),
		CacheHits: reg.Counter("palu_scenario_cache_hits_total",
			"window requirements satisfied by an existing archive"),
		CacheMisses: reg.Counter("palu_scenario_cache_misses_total",
			"window requirements generated and recorded"),
		CacheRecordedPackets: reg.Counter("palu_scenario_cache_recorded_packets_total",
			"packets archived on cache misses"),
		CacheReplayedPackets: reg.Counter("palu_scenario_cache_replayed_packets_total",
			"packets replayed out of cached archives"),
		MemoHits: reg.Counter("palu_scenario_memo_hits_total",
			"value-memo lookups served by a finished or in-flight compute"),
		MemoMisses: reg.Counter("palu_scenario_memo_misses_total",
			"value-memo lookups that computed the value"),
		Stream: stream.NewMetrics(reg),
		Trace:  tracestore.NewMetrics(reg),
		Fit:    model.NewMetrics(reg),
	}
}

// The nil-safe hooks below are what the engine and cache call; each is
// an inert branch on a nil bundle.

func (m *Metrics) runStart() obs.Span {
	if m == nil {
		return obs.Span{}
	}
	m.WorkersBusy.Add(1)
	return m.RunTime.Start()
}

func (m *Metrics) runEnd(sp obs.Span, failed bool) {
	if m == nil {
		return
	}
	sp.Stop()
	m.WorkersBusy.Add(-1)
	m.Runs.Inc()
	if failed {
		m.Failures.Inc()
	}
}

func (m *Metrics) cacheHit() {
	if m != nil {
		m.CacheHits.Inc()
	}
}

func (m *Metrics) cacheMiss() {
	if m != nil {
		m.CacheMisses.Inc()
	}
}

func (m *Metrics) cacheRecorded(n int64) {
	if m != nil {
		m.CacheRecordedPackets.Add(n)
	}
}

func (m *Metrics) cacheReplayed(n int64) {
	if m != nil {
		m.CacheReplayedPackets.Add(n)
	}
}

func (m *Metrics) memoLookup(hit bool) {
	switch {
	case m == nil:
	case hit:
		m.MemoHits.Inc()
	default:
		m.MemoMisses.Inc()
	}
}

func (m *Metrics) streamMetrics() *stream.Metrics {
	if m == nil {
		return nil
	}
	return m.Stream
}

// FitMetrics returns the engine's fit-layer instruments for the
// scenario's fits (nil when the engine is uninstrumented or the context
// standalone).
func (c *Context) FitMetrics() *model.Metrics {
	if c.eng == nil || c.eng.m == nil {
		return nil
	}
	return c.eng.m.Fit
}

func (m *Metrics) traceMetrics() *tracestore.Metrics {
	if m == nil {
		return nil
	}
	return m.Trace
}

// Timings renders the per-scenario timing table (timings.csv): one row
// per report in registration order, then a closing suite row with the
// wall-clock span from the earliest start to the latest end and the
// cache counters. The format is deterministic; the seconds column is
// not (it is measured wall time), which is why the artifact is excluded
// from byte-equality comparisons between runs.
func Timings(reports []Report, cs CacheStats) string {
	var b strings.Builder
	b.WriteString("scenario,status,seconds,cache_hits,cache_misses\n")
	var first, last time.Time
	for i, r := range reports {
		status := "ok"
		if r.Err != nil {
			status = "failed"
		}
		fmt.Fprintf(&b, "%s,%s,%.3f,,\n", r.Scenario.Name, status, r.Duration.Seconds())
		if i == 0 || r.Start.Before(first) {
			first = r.Start
		}
		if end := r.Start.Add(r.Duration); end.After(last) {
			last = end
		}
	}
	fmt.Fprintf(&b, "suite,,%.3f,%d,%d\n", last.Sub(first).Seconds(), cs.Hits, cs.Misses)
	return b.String()
}
