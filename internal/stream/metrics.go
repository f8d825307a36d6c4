package stream

// Pipeline observability (DESIGN.md §11). A Metrics value bundles the
// pipeline's instruments; PipelineConfig.Metrics == nil strips
// instrumentation to nil-receiver branches. Instrumentation is attached
// at block and window granularity only — the per-packet inner loops are
// untouched, and the packet counters are settled once per run from
// PipelineStats (TestMetricsInstrumentCountPin in the repo root's
// obs_test.go pins this).
//
// Every instrument is registered eagerly by NewMetrics, so the metric
// key set of a snapshot is identical across worker counts
// and across the serial and parallel engines; only the deterministic
// quantities (packets, windows) are guaranteed value-equal between
// configurations.

import "hybridplaw/internal/obs"

// Metrics holds the pipeline's instruments, all registered against one
// registry. A nil *Metrics disables instrumentation.
type Metrics struct {
	reg *obs.Registry

	// PacketsValid / PacketsInvalid count ingested packets; Windows
	// counts windows delivered to the sinks; TailDiscarded counts valid
	// packets dropped in the trailing incomplete window. All four are
	// settled from PipelineStats at end of run, so they are exactly
	// equal across worker counts.
	PacketsValid   *obs.Counter
	PacketsInvalid *obs.Counter
	Windows        *obs.Counter
	TailDiscarded  *obs.Counter

	// WindowPoolAlloc / WindowPoolReuse count pooled PairWindow
	// allocations and re-acquisitions; BuilderAlloc / BuilderReuse do
	// the same for spmat builders (a "reuse" is a warm Reset). The
	// serial engine has no window pool, so those two stay zero there.
	WindowPoolAlloc *obs.Counter
	WindowPoolReuse *obs.Counter
	BuilderAlloc    *obs.Counter
	BuilderReuse    *obs.Counter

	// QueueWindows is the number of windows handed off to the worker
	// pool and not yet reduced — the pipeline's in-flight depth.
	QueueWindows *obs.Gauge

	// IngestTime spans one DecodeInto call (a source block, or one
	// stack batch of a per-packet source); ReduceTime spans one window's
	// key-buffer replay (parallel engine only); WindowCloseTime spans reduceWindow;
	// SinkTime spans one window's in-order sink delivery.
	IngestTime      *obs.Timer
	ReduceTime      *obs.Timer
	WindowCloseTime *obs.Timer
	SinkTime        *obs.Timer
}

// NewMetrics registers the pipeline instrument set against reg (the
// process default registry if nil) and returns the bundle. Calling it
// twice with one registry returns bundles sharing the same instruments.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &Metrics{
		reg: reg,
		PacketsValid: reg.Counter("palu_stream_packets_valid_total",
			"valid packets ingested by the pipeline"),
		PacketsInvalid: reg.Counter("palu_stream_packets_invalid_total",
			"invalid packets filtered at ingest"),
		Windows: reg.Counter("palu_stream_windows_total",
			"complete windows delivered to the sinks"),
		TailDiscarded: reg.Counter("palu_stream_tail_discarded_packets_total",
			"valid packets discarded in trailing incomplete windows"),
		WindowPoolAlloc: reg.Counter("palu_stream_window_pool_alloc_total",
			"pooled pair windows allocated"),
		WindowPoolReuse: reg.Counter("palu_stream_window_pool_reuse_total",
			"pooled pair windows re-acquired after a reduce"),
		BuilderAlloc: reg.Counter("palu_stream_builder_alloc_total",
			"spmat builders allocated"),
		BuilderReuse: reg.Counter("palu_stream_builder_reuse_total",
			"spmat builder warm resets"),
		QueueWindows: reg.Gauge("palu_stream_queue_windows",
			"windows handed off and not yet reduced"),
		IngestTime: reg.Timer("palu_stream_ingest_ns",
			"source block read/decode time"),
		ReduceTime: reg.Timer("palu_stream_reduce_ns",
			"window key-buffer replay time (parallel engine)"),
		WindowCloseTime: reg.Timer("palu_stream_window_close_ns",
			"window close (builder state to WindowResult) time"),
		SinkTime: reg.Timer("palu_stream_sink_ns",
			"in-order sink delivery time per window"),
	}
}

// Registry returns the registry the instruments live in (nil for a nil
// bundle).
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// The unexported accessors below let the pipeline pull instruments off
// a possibly-nil bundle once, at engine start; a nil bundle yields nil
// instruments whose methods are inert branches.

func (m *Metrics) ingestTimer() *obs.Timer {
	if m == nil {
		return nil
	}
	return m.IngestTime
}

func (m *Metrics) reduceTimer() *obs.Timer {
	if m == nil {
		return nil
	}
	return m.ReduceTime
}

func (m *Metrics) windowCloseTimer() *obs.Timer {
	if m == nil {
		return nil
	}
	return m.WindowCloseTime
}

func (m *Metrics) sinkTimer() *obs.Timer {
	if m == nil {
		return nil
	}
	return m.SinkTime
}

func (m *Metrics) queueGauge() *obs.Gauge {
	if m == nil {
		return nil
	}
	return m.QueueWindows
}

func (m *Metrics) windowPoolCounters() (alloc, reuse *obs.Counter) {
	if m == nil {
		return nil, nil
	}
	return m.WindowPoolAlloc, m.WindowPoolReuse
}

func (m *Metrics) builderCounters() (alloc, reuse *obs.Counter) {
	if m == nil {
		return nil, nil
	}
	return m.BuilderAlloc, m.BuilderReuse
}

// settleStats folds a finished run's exact packet accounting into the
// counters. Called once per Run, so repeated runs over one registry
// aggregate.
func (m *Metrics) settleStats(stats *PipelineStats) {
	if m == nil {
		return
	}
	m.PacketsValid.Add(stats.ValidPackets)
	m.PacketsInvalid.Add(stats.InvalidPackets)
	m.Windows.Add(int64(stats.Windows))
	m.TailDiscarded.Add(stats.DiscardedTail)
}
