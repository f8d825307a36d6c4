package stream

// The single-pass streaming pipeline engine. The batch helpers of
// stream.go materialize every window; this file is the bounded-memory
// path the paper's premise ("large scale streaming network data")
// actually demands:
//
//	PacketSource → fixed-NV windower → reduce → Sinks
//
// The unit flowing through the pipeline is the packed (src<<32 | dst)
// link key of a valid packet, not the Packet struct: invalid packets are
// filtered (and counted) at ingest, and everything downstream — the
// spmat flat tables, the handoff buffers — speaks packed keys. Every
// source fills windows through one surface, DecodeInto. An
// EncodedBlockSource (the PTRC reader) decodes its compressed blocks
// directly into the window under construction, with no []Packet
// materialization at all (see tracestore.Reader.DecodeInto). Any other
// PacketSource is adapted by packetDecoder, which batches keys on the
// stack so the flat tables can overlap their cache misses.
//
// With Workers == 1 the pipeline runs fully fused on the calling
// goroutine: valid packets accumulate straight into one pooled
// spmat.Builder, windows reduce and feed the sinks inline, and no
// intermediate buffer of any kind exists between the source and the
// flat tables. Otherwise the ingest loop fills the key buffer of a
// pooled PairWindow and hands each completed window to a fixed worker
// pool: a worker owns one spmat.Builder for its lifetime, replays the
// buffer through Builder.AddPairs, converts the state into the five
// Fig. 1 quantity histograms, resets the builder with its tables still
// warm, and returns the window to the pool. A consumer goroutine
// re-orders completed windows and feeds each Sink in strict window
// order, so every sink observes exactly the sequence a serial pass
// would produce — byte-identical at any worker count, because every
// reduction is an order-independent integer accumulation. At no point
// are more than workers+1 windows resident in memory, regardless of
// trace length.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"hybridplaw/internal/estimate"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/powerlaw"
	"hybridplaw/internal/spmat"
	"hybridplaw/internal/zipfmand"
)

// PacketSource is a pull iterator over a packet trace. Implementations
// are typically lazy (CSV decoding, synthetic generation) so arbitrarily
// long traces stream in bounded memory.
type PacketSource interface {
	// Next returns the next packet. ok = false ends the stream; the
	// consumer must then check Err for the cause.
	Next() (p Packet, ok bool)
	// Err reports the error that terminated the stream, if any. It is
	// meaningful only after Next has returned ok = false.
	Err() error
}

// SliceSource adapts an in-memory packet slice to PacketSource.
type SliceSource struct {
	packets []Packet
	i       int
}

// NewSliceSource returns a source that replays the slice once.
func NewSliceSource(packets []Packet) *SliceSource {
	return &SliceSource{packets: packets}
}

// Next implements PacketSource.
func (s *SliceSource) Next() (Packet, bool) {
	if s.i >= len(s.packets) {
		return Packet{}, false
	}
	p := s.packets[s.i]
	s.i++
	return p, true
}

// Err implements PacketSource; a slice cannot fail.
func (s *SliceSource) Err() error { return nil }

// PacketsRead reports the number of packets replayed so far.
func (s *SliceSource) PacketsRead() int64 { return int64(s.i) }

// PacketCounter is the optional accounting extension of PacketSource:
// sources that know how many packets they have produced implement it, and
// Run surfaces the count in PipelineStats.SourcePacketsRead so truncated
// traces are detectable by callers.
type PacketCounter interface {
	// PacketsRead reports the number of packets produced so far.
	PacketsRead() int64
}

// BlockSource is the optional bulk extension of PacketSource: sources
// that naturally hold runs of decoded packets (the tracestore block
// reader) expose them whole, so bulk consumers — the PTRC writer's
// RecordFrom, WriteTraceCSVFrom — drain them without one interface call
// per packet. Run does not use it: the PTRC reader is also an
// EncodedBlockSource, and every other source is read per packet.
type BlockSource interface {
	PacketSource
	// NextBlock returns the next run of packets, or ok = false at end of
	// stream (then Err reports the cause, as for Next). The returned
	// slice is only valid until the next NextBlock/Next call: callers
	// must copy what they keep. Next and NextBlock may be interleaved;
	// both consume the same underlying sequence.
	NextBlock() ([]Packet, bool)
}

// EncodedBlockSource is the fused extension of PacketSource: sources
// whose blocks exist in an encoded on-disk form (the PTRC reader)
// decode them directly into the window under construction, with no
// []Packet materialization. DecodeInto is Run's one ingest surface: Run
// adapts every other PacketSource to it (packetDecoder).
type EncodedBlockSource interface {
	PacketSource
	// DecodeInto decodes packets from the source's current block run
	// directly into w, stopping early once w is full. It reports the
	// valid/invalid split of the packets consumed, full = true when w
	// reached its window size, and ok = false at end of stream (the
	// consumer must then check Err). A call consumes at most one block
	// run; callers loop. DecodeInto must not be interleaved with Next or
	// NextBlock on the same source.
	DecodeInto(w *PairWindow) (valid, invalid int64, full, ok bool)
}

// packetDecoder adapts a per-packet PacketSource to the DecodeInto
// ingest surface. One call fills at most one stack batch of keys and
// reports full on exactly the packet that closes the window, so a
// MaxWindows-bounded run never reads past its final window.
type packetDecoder struct {
	PacketSource
}

// DecodeInto implements EncodedBlockSource.
func (d packetDecoder) DecodeInto(w *PairWindow) (valid, invalid int64, full, ok bool) {
	var batch [pairBatch]uint64
	n := int64(len(batch))
	if rem := w.Remaining(); rem < n {
		n = rem
	}
	for valid < n {
		p, more := d.Next()
		if !more {
			w.AddPairs(batch[:valid])
			return valid, invalid, false, false
		}
		if !p.Valid {
			invalid++
			continue
		}
		batch[valid] = uint64(p.Src)<<32 | uint64(p.Dst)
		valid++
	}
	w.AddPairs(batch[:valid])
	return valid, invalid, w.Remaining() == 0, true
}

// takeValidSource limits a source to a prefix ending at its n-th valid
// packet (see TakeValid).
type takeValidSource struct {
	src       PacketSource
	remaining int64
	read      int64
}

// TakeValid returns a source producing the prefix of src up to and
// including its n-th valid packet; invalid packets interleaved before
// that boundary pass through unchanged. This is exactly the prefix the
// pipeline consumes for n = NV × MaxWindows, so recording through
// TakeValid and replaying the archive reproduces a bounded pipeline run
// bit-identically.
func TakeValid(src PacketSource, n int64) PacketSource {
	return &takeValidSource{src: src, remaining: n}
}

// Next implements PacketSource.
func (s *takeValidSource) Next() (Packet, bool) {
	if s.remaining <= 0 {
		return Packet{}, false
	}
	p, ok := s.src.Next()
	if !ok {
		s.remaining = 0
		return Packet{}, false
	}
	if p.Valid {
		s.remaining--
	}
	s.read++
	return p, true
}

// Err implements PacketSource.
func (s *takeValidSource) Err() error { return s.src.Err() }

// PacketsRead implements PacketCounter.
func (s *takeValidSource) PacketsRead() int64 { return s.read }

// WindowResult is one completed window as produced by the pipeline: the
// Table I aggregates and all five Fig. 1 quantity histograms, computed in
// a single pass over the window's incremental builder state.
type WindowResult struct {
	// T is the window index (the paper's time t).
	T int
	// NV is the number of valid packets aggregated.
	NV int64
	// Aggregates are the Table I aggregate properties.
	Aggregates spmat.Aggregates
	// Hists holds the degree histogram of each Fig. 1 quantity, indexed
	// by Quantity.
	Hists [NumQuantities]*hist.Histogram
	// Matrix is the frozen sparse traffic matrix At, populated only when
	// PipelineConfig.KeepMatrices is set (it is the one per-window
	// product whose construction is not O(1)-memory friendly).
	Matrix *spmat.Matrix
	// Partial is the window's deterministic mergeable partial aggregate,
	// populated only when PipelineConfig.KeepPartials is set. It is the
	// unit of cross-site federation (see spmat.WindowPartial).
	Partial *spmat.WindowPartial
}

// Hist returns the histogram of quantity q, or nil for an invalid q.
func (r *WindowResult) Hist(q Quantity) *hist.Histogram {
	if q < 0 || int(q) >= NumQuantities {
		return nil
	}
	return r.Hists[q]
}

// Sink consumes completed windows in strict window order (T = 0, 1, ...).
// A non-nil error cancels the pipeline.
type Sink interface {
	ConsumeWindow(*WindowResult) error
}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(*WindowResult) error

// ConsumeWindow implements Sink.
func (f FuncSink) ConsumeWindow(res *WindowResult) error { return f(res) }

// ResultCollector is a Sink that retains every WindowResult. It is the
// bridge back to batch-style code and is inherently O(windows) memory —
// prefer streaming sinks for long traces.
type ResultCollector struct {
	Results []*WindowResult
}

// ConsumeWindow implements Sink.
func (c *ResultCollector) ConsumeWindow(res *WindowResult) error {
	c.Results = append(c.Results, res)
	return nil
}

// PipelineConfig configures a pipeline run.
type PipelineConfig struct {
	// NV is the window size in valid packets (required, positive).
	NV int64
	// Workers bounds the worker pool; <= 0 selects GOMAXPROCS. Window
	// residency is bounded by Workers+1. Workers == 1 selects the fully
	// fused serial pipeline: ingest, reduce and sinks share the calling
	// goroutine and no handoff buffers exist.
	Workers int
	// MaxWindows stops the pipeline after that many complete windows;
	// <= 0 streams until the source is exhausted. With a MaxWindows
	// bound the source is not consumed past the closing packet of the
	// final window.
	MaxWindows int
	// KeepMatrices populates WindowResult.Matrix with the frozen
	// spmat.Matrix of each window. Off by default: the matrix is the one
	// product that requires a sort and a fresh allocation per window.
	KeepMatrices bool
	// KeepPartials populates WindowResult.Partial with the window's
	// deterministic mergeable partial aggregate (same per-window sort
	// cost as KeepMatrices). The federation scenarios set it to merge
	// per-site windows into a backbone view.
	KeepPartials bool
	// Metrics, when non-nil, instruments the run: stage timers at block
	// and window granularity, queue/pool accounting, and exact packet
	// counters settled from the run's stats (see NewMetrics). Nil
	// strips instrumentation to inert nil-receiver branches.
	Metrics *Metrics
}

// PipelineStats summarizes a pipeline run.
type PipelineStats struct {
	// Windows is the number of complete windows delivered to the sinks.
	Windows int
	// ValidPackets and InvalidPackets count the packets ingested.
	ValidPackets, InvalidPackets int64
	// DiscardedTail is the number of valid packets in the trailing
	// incomplete window, discarded per the fixed-NV methodology.
	DiscardedTail int64
	// SourcePacketsRead is the source's own packet count when the source
	// implements PacketCounter (CSVSource, tracestore readers, ...), and
	// -1 otherwise. For a fully drained counting source it equals
	// ValidPackets + InvalidPackets; a shortfall against an expected trace
	// length indicates a truncated archive. A MaxWindows-bounded run over
	// an EncodedBlockSource may read up to one block past the packets it
	// counts (consumption granularity is the block); over any other
	// source it stops exactly at the packet that closed the final window.
	SourcePacketsRead int64
}

// pairBatch is the stack batch size of packetDecoder: keys are collected
// in runs of this size before entering the flat tables, so spmat's
// batched adds can overlap their cache misses. 256 keys = 2 KiB of
// stack, 32 prefetch strides per flush.
const pairBatch = 256

// Run executes the streaming pipeline: it ingests packets from src on
// the calling goroutine, cuts fixed-NV windows, reduces each completed
// window, and feeds the results to the sinks in window order. It returns
// when the source is exhausted, MaxWindows is reached, the source fails,
// or a sink returns an error.
func Run(src PacketSource, cfg PipelineConfig, sinks ...Sink) (PipelineStats, error) {
	stats := PipelineStats{SourcePacketsRead: -1}
	if src == nil {
		return stats, errors.New("stream: nil packet source")
	}
	if cfg.NV <= 0 {
		return stats, errors.New("stream: window size NV must be positive")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxWindows > 0 && workers > cfg.MaxWindows {
		workers = cfg.MaxWindows // never more workers than windows to reduce
	}
	dec, ok := src.(EncodedBlockSource)
	if !ok {
		dec = packetDecoder{src}
	}

	var err error
	if workers == 1 {
		err = runSerial(dec, cfg, &stats, sinks)
	} else {
		err = runParallel(dec, cfg, workers, &stats, sinks)
	}
	if c, ok := src.(PacketCounter); ok {
		stats.SourcePacketsRead = c.PacketsRead()
	}
	cfg.Metrics.settleStats(&stats)
	if err != nil {
		return stats, err
	}
	return stats, src.Err()
}

// runSerial is the fully fused single-worker pipeline: ingest, window
// reduce and sink delivery share the calling goroutine, and valid
// packets accumulate straight into one pooled builder — no chunk
// buffers, no channels, no goroutines. Over the PTRC reader this is the
// one-pass hot path: compressed payloads decode directly into the
// builder's flat tables.
func runSerial(src EncodedBlockSource, cfg PipelineConfig, stats *PipelineStats, sinks []Sink) error {
	// Instrument handles are pulled once; with cfg.Metrics == nil they
	// are nil and every Start/Inc below is an inert branch.
	ingestT := cfg.Metrics.ingestTimer()
	closeT := cfg.Metrics.windowCloseTimer()
	sinkT := cfg.Metrics.sinkTimer()
	bAlloc, bReuse := cfg.Metrics.builderCounters()

	b := spmat.NewBuilder()
	bAlloc.Inc()
	w := &PairWindow{direct: b, nv: cfg.NV}
	for t := 0; cfg.MaxWindows <= 0 || t < cfg.MaxWindows; {
		isp := ingestT.Start()
		valid, invalid, full, ok := src.DecodeInto(w)
		isp.Stop()
		stats.ValidPackets += valid
		stats.InvalidPackets += invalid
		if full {
			csp := closeT.Start()
			res, err := reduceWindow(t, b, cfg)
			csp.Stop()
			if err != nil {
				return err
			}
			ssp := sinkT.Start()
			for _, s := range sinks {
				if err := s.ConsumeWindow(res); err != nil {
					ssp.Stop()
					return err
				}
			}
			ssp.Stop()
			stats.Windows++
			t++
			b.Reset()
			bReuse.Inc()
			w.Reset()
		}
		if !ok {
			break
		}
	}
	stats.DiscardedTail = w.n
	return nil
}

// runParallel is the worker-pool pipeline: the ingest loop (on the
// calling goroutine) fills the key buffers of pooled PairWindows,
// completed windows reduce on a bounded worker pool, and a consumer
// goroutine re-orders completions so sinks observe strict window order.
func runParallel(src EncodedBlockSource, cfg PipelineConfig, workers int, stats *PipelineStats, sinks []Sink) error {
	type job struct {
		t     int
		chunk *PairWindow // exactly NV valid packets
	}
	type outcome struct {
		t   int
		res *WindowResult
		err error
	}

	// Instrument handles are pulled once; with cfg.Metrics == nil they
	// are nil and every Start/Inc/Add below is an inert branch.
	ingestT := cfg.Metrics.ingestTimer()
	reduceT := cfg.Metrics.reduceTimer()
	closeT := cfg.Metrics.windowCloseTimer()
	sinkT := cfg.Metrics.sinkTimer()
	queueG := cfg.Metrics.queueGauge()
	wAlloc, wReuse := cfg.Metrics.windowPoolCounters()
	bAlloc, bReuse := cfg.Metrics.builderCounters()

	// The window pool is the memory bound: workers+1 window-sized key
	// buffers exist for the lifetime of the run (one filling, up to
	// workers being reduced).
	free := make(chan *PairWindow, workers+1)
	for i := 0; i < workers+1; i++ {
		free <- NewPairWindow(cfg.NV)
	}
	wAlloc.Add(int64(workers + 1))
	jobs := make(chan job)
	results := make(chan outcome, workers)
	stop := make(chan struct{}) // closed once on the first consumer-side error

	// Each worker owns one builder for the whole run; Reset keeps its
	// table storage warm across windows, killing per-window allocation
	// churn.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := spmat.NewBuilder()
			bAlloc.Inc()
			for j := range jobs {
				rsp := reduceT.Start()
				b.AddPairs(j.chunk.keys)
				rsp.Stop()
				csp := closeT.Start()
				res, err := reduceWindow(j.t, b, cfg)
				csp.Stop()
				b.Reset()
				bReuse.Inc()
				j.chunk.Reset()
				free <- j.chunk // capacity workers+1: never blocks
				queueG.Add(-1)
				results <- outcome{t: j.t, res: res, err: err}
			}
		}()
	}

	// The consumer re-orders worker completions into window order and
	// feeds the sinks sequentially, so sinks observe windows exactly as
	// a serial pass would. At most `workers` results are pending.
	var consumeErr error
	delivered := 0
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		pending := make(map[int]*WindowResult, workers)
		next := 0
		for r := range results {
			if consumeErr != nil {
				continue // drain so workers never block
			}
			if r.err != nil {
				consumeErr = r.err
				close(stop)
				continue
			}
			pending[r.t] = r.res
			for consumeErr == nil {
				res, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				ssp := sinkT.Start()
				for _, s := range sinks {
					if err := s.ConsumeWindow(res); err != nil {
						consumeErr = err
						close(stop)
						break
					}
				}
				ssp.Stop()
				if consumeErr == nil {
					delivered++
				}
			}
		}
	}()

	// Ingest loop, on the caller's goroutine: fill a window, hand it off
	// to the worker pool, acquire a fresh buffer. It stops at end of
	// stream, on a consumer-side error, or once MaxWindows are handed off.
	chunk := <-free
ingest:
	for t := 0; ; {
		isp := ingestT.Start()
		valid, invalid, full, ok := src.DecodeInto(chunk)
		isp.Stop()
		stats.ValidPackets += valid
		stats.InvalidPackets += invalid
		if full {
			select {
			case jobs <- job{t: t, chunk: chunk}:
				queueG.Add(1)
			case <-stop:
				break ingest
			}
			chunk = nil
			t++
			if cfg.MaxWindows > 0 && t >= cfg.MaxWindows {
				break
			}
			select {
			case chunk = <-free:
				wReuse.Inc()
			case <-stop:
				break ingest
			}
		}
		if !ok {
			break
		}
	}
	if chunk != nil {
		stats.DiscardedTail = chunk.n
	}
	close(jobs)
	wg.Wait()
	close(results)
	<-consumerDone

	stats.Windows = delivered // reading after consumerDone: no race
	return consumeErr
}

// PairWindow is one window's valid packets as packed (src<<32 | dst)
// link keys: the handoff unit between ingest and the reduce stage, and
// the deposit target of DecodeInto. In buffering mode the keys collect
// in one buffer for a worker to reduce; in direct mode (the fully fused
// serial pipeline) every deposit goes straight into a spmat.Builder and
// no buffer exists.
type PairWindow struct {
	keys   []uint64       // packed keys (buffering mode)
	direct *spmat.Builder // non-nil: fused serial mode, keys bypass buffering
	n      int64          // valid packets deposited
	nv     int64          // window size
}

// NewPairWindow allocates a buffering window sized for nv valid packets.
// The pipeline pools its own windows; the exported constructor exists
// for direct consumers of EncodedBlockSource (tests, custom replay
// tools).
func NewPairWindow(nv int64) *PairWindow {
	return &PairWindow{keys: make([]uint64, 0, nv), nv: nv}
}

// Remaining returns the number of valid packets the window still
// accepts. Fused decoders size their deposits by it.
func (w *PairWindow) Remaining() int64 { return w.nv - w.n }

// AddPairs deposits packed (src<<32 | dst) link keys of valid packets.
// len(keys) must not exceed Remaining(); the keys slice is not retained.
func (w *PairWindow) AddPairs(keys []uint64) {
	w.n += int64(len(keys))
	if w.direct != nil {
		w.direct.AddPairs(keys)
		return
	}
	w.keys = append(w.keys, keys...)
}

// Reset empties the window for reuse, retaining buffer capacity.
func (w *PairWindow) Reset() {
	w.keys = w.keys[:0]
	w.n = 0
}

// reduceWindow converts a closed window's builder state into a
// WindowResult: all five Fig. 1 histograms in one pass over the
// incremental reductions, no intermediate Matrix required. When both
// the partial and the matrix are kept they share one canonicalization.
func reduceWindow(t int, b *spmat.Builder, cfg PipelineConfig) (*WindowResult, error) {
	res := &WindowResult{T: t, NV: b.Total(), Aggregates: b.Aggregates()}
	var err error
	if res.Hists[SourcePackets], err = histFromIter(b.ForEachSourcePacket); err != nil {
		return nil, err
	}
	if res.Hists[SourceFanOut], err = histFromIter(b.ForEachSourceFanOut); err != nil {
		return nil, err
	}
	if res.Hists[DestinationFanIn], err = histFromIter(b.ForEachDestinationFanIn); err != nil {
		return nil, err
	}
	if res.Hists[DestinationPackets], err = histFromIter(b.ForEachDestinationPacket); err != nil {
		return nil, err
	}
	lp := hist.New()
	b.ForEachLink(func(_, _ uint32, n int64) {
		if e := lp.AddN(int(n), 1); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	res.Hists[LinkPackets] = lp
	if cfg.KeepPartials {
		p := b.Partial()
		res.Partial = &p
		if cfg.KeepMatrices {
			res.Matrix = p.Matrix() // shares the partial's canonical sort
		}
	} else if cfg.KeepMatrices {
		res.Matrix = b.Build()
	}
	return res, nil
}

// histFromIter tallies a per-node reduction into its degree histogram.
func histFromIter(iter func(func(id uint32, n int64))) (*hist.Histogram, error) {
	h := hist.New()
	var err error
	iter(func(_ uint32, v int64) {
		if e := h.AddN(int(v), 1); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// CollectWindows runs the pipeline with a window-collecting sink and
// returns the frozen windows: the batch-compatibility path (O(windows)
// memory, matrices retained).
func CollectWindows(src PacketSource, cfg PipelineConfig) ([]*Window, PipelineStats, error) {
	cfg.KeepMatrices = true
	var wins []*Window
	stats, err := Run(src, cfg, FuncSink(func(res *WindowResult) error {
		wins = append(wins, &Window{T: res.T, Matrix: res.Matrix, NV: res.NV})
		return nil
	}))
	if err != nil {
		return nil, stats, err
	}
	return wins, stats, nil
}

// EnsembleSink accumulates, per selected quantity, the cross-window
// pooled ensemble (mean D(di) and σ(di), the ±1σ error bars of Fig. 3)
// and the merged histogram across all windows. Memory is O(log dmax) per
// quantity — independent of trace length.
type EnsembleSink struct {
	qs     []Quantity
	ens    [NumQuantities]*hist.Ensemble
	merged [NumQuantities]*hist.Histogram
}

// NewEnsembleSink returns a sink accumulating the given quantities; with
// no arguments it accumulates all five. Invalid quantities panic.
func NewEnsembleSink(qs ...Quantity) *EnsembleSink {
	if len(qs) == 0 {
		qs = Quantities
	}
	s := &EnsembleSink{qs: append([]Quantity(nil), qs...)}
	for _, q := range s.qs {
		if q < 0 || int(q) >= NumQuantities {
			panic(fmt.Sprintf("stream: invalid quantity %d", int(q)))
		}
		s.ens[q] = hist.NewEnsemble()
		s.merged[q] = hist.New()
	}
	return s
}

// ConsumeWindow implements Sink.
func (s *EnsembleSink) ConsumeWindow(res *WindowResult) error {
	for _, q := range s.qs {
		h := res.Hists[q]
		s.merged[q].Merge(h)
		p, err := h.Pool()
		if err != nil {
			return fmt.Errorf("stream: window %d, %v: %w", res.T, q, err)
		}
		s.ens[q].Add(p)
	}
	return nil
}

// Ensemble returns the cross-window ensemble of q (nil if q was not
// accumulated).
func (s *EnsembleSink) Ensemble(q Quantity) *hist.Ensemble {
	if q < 0 || int(q) >= NumQuantities {
		return nil
	}
	return s.ens[q]
}

// Merged returns the all-windows merged histogram of q (nil if q was not
// accumulated).
func (s *EnsembleSink) Merged(q Quantity) *hist.Histogram {
	if q < 0 || int(q) >= NumQuantities {
		return nil
	}
	return s.merged[q]
}

// FitZM fits the modified Zipf–Mandelbrot model to the cross-window mean
// pooled distribution of q (the black fit line of Fig. 3).
func (s *EnsembleSink) FitZM(q Quantity, opts zipfmand.FitOptions) (zipfmand.FitResult, error) {
	ens, merged := s.Ensemble(q), s.Merged(q)
	if ens == nil || ens.Windows() == 0 {
		return zipfmand.FitResult{}, fmt.Errorf("stream: no windows accumulated for %v", q)
	}
	return zipfmand.Fit(&hist.Pooled{D: ens.Mean(), Total: merged.Total()},
		merged.MaxDegree(), opts)
}

// FitPowerLaw runs the Clauset–Shalizi–Newman single power-law baseline
// on the merged histogram of q.
func (s *EnsembleSink) FitPowerLaw(q Quantity) (powerlaw.Fit, error) {
	merged := s.Merged(q)
	if merged == nil || merged.Total() == 0 {
		return powerlaw.Fit{}, fmt.Errorf("stream: no windows accumulated for %v", q)
	}
	return powerlaw.FitScan(merged, 0)
}

// EstimatePALU runs the Section IV.B estimator pipeline on the merged
// histogram of q.
func (s *EnsembleSink) EstimatePALU(q Quantity, opts estimate.Options) (estimate.Result, error) {
	merged := s.Merged(q)
	if merged == nil || merged.Total() == 0 {
		return estimate.Result{}, fmt.Errorf("stream: no windows accumulated for %v", q)
	}
	return estimate.Estimate(merged, opts)
}
