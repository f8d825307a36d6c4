package stream

// The single-pass streaming pipeline engine, the package's one path
// from packets to windows: it runs in the bounded memory the paper's
// premise ("large scale streaming network data") demands:
//
//	PacketSource → fixed-NV windower → reduce → Sinks
//
// The unit flowing through the pipeline is the packed (src<<32 | dst)
// link key of a valid packet, not the Packet struct: invalid packets are
// filtered (and counted) at ingest, and everything downstream — the
// window's spmat accumulator, the handoff buffers — speaks packed keys.
// Every source fills windows through one surface, DecodeInto. An
// EncodedBlockSource (the PTRC reader) decodes its packed blocks
// directly into the window under construction, with no []Packet
// materialization at all (see tracestore.Reader.DecodeInto). Any other
// PacketSource is adapted by packetDecoder, which batches keys on the
// stack before they reach the accumulator.
//
// The pipeline runs fully fused on the calling goroutine: valid packets
// accumulate straight into the window's accumulator, each completed
// window reduces into what its sinks read (see ReadSet) and feeds the
// sinks inline, and the accumulator resets with its buffers kept for
// the next window. The read set also picks the accumulator, once
// per run: an spmat.Builder, which keeps the window's keys and sorts
// them once at close, so every link-level reduction and retained
// product reads sorted runs, or an spmat.NodeCounter that counts only
// the per-node packet totals a packets-only run reads; for a Builder it
// picks the sort's major side too (see newRunWindow). No buffer exists
// between the source and the accumulator beyond the window's own keys,
// and one window is resident at a time,
// regardless of trace length. Parallelism lives one level up: the
// scenario engine runs whole scenarios, each with its own pipeline, on
// its worker pool.

import (
	"errors"
	"fmt"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/spmat"
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
	// run; callers loop.
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
// Table I aggregates and the Fig. 1 quantity histograms its run's sinks
// read, reduced from the window's builder state. A run whose sinks all
// declare their reads (DeclaredSink) builds only the union of those
// declarations; every field outside it is zero (Aggregates) or nil
// (Hists). A run with any undeclared sink builds every field.
type WindowResult struct {
	// T is the window index (the paper's time t).
	T int
	// NV is the number of valid packets aggregated.
	NV int64
	// Aggregates are the Table I aggregate properties; zero unless the
	// run reads ReadAggregates.
	Aggregates spmat.Aggregates
	// Hists holds the degree histogram of each Fig. 1 quantity, indexed
	// by Quantity; nil for a quantity the run does not read.
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

// Sink consumes completed windows in strict window order (T = 0, 1, ...).
// A non-nil error cancels the pipeline.
type Sink interface {
	ConsumeWindow(*WindowResult) error
}

// ReadSet names the parts of a WindowResult that a sink reads: bit q for
// the histogram of Quantity q, and ReadAggregates for the Table I
// aggregates. T, NV and the retained products (Matrix, Partial, which
// PipelineConfig's Keep flags control) are outside it and always set.
type ReadSet uint8

const (
	// ReadAggregates marks WindowResult.Aggregates as read.
	ReadAggregates ReadSet = 1 << NumQuantities
	// readAll is every field a read set can name: what an undeclared
	// sink is assumed to read.
	readAll ReadSet = ReadAggregates<<1 - 1
)

// ReadHists returns the read set of the given quantities' histograms.
// Invalid quantities panic.
func ReadHists(qs ...Quantity) ReadSet {
	var r ReadSet
	for _, q := range qs {
		if q < 0 || int(q) >= NumQuantities {
			panic(fmt.Sprintf("stream: invalid quantity %d", int(q)))
		}
		r |= 1 << q
	}
	return r
}

// has reports whether r includes the histogram of q.
func (r ReadSet) has(q Quantity) bool { return r&(1<<q) != 0 }

// DeclaredSink is a Sink that declares what it reads of every
// WindowResult. Run reduces only the union of its sinks' declarations,
// so a sink must not read outside its own: an unread histogram is nil
// and unread aggregates are zero. A Sink that does not implement
// DeclaredSink reads everything.
type DeclaredSink interface {
	Sink
	// Reads returns the sink's read set. Run calls it once, before the
	// first window.
	Reads() ReadSet
}

// FuncSink adapts a function to the Sink interface. It declares no read
// set, so a run with one builds every WindowResult field.
type FuncSink func(*WindowResult) error

// ConsumeWindow implements Sink.
func (f FuncSink) ConsumeWindow(res *WindowResult) error { return f(res) }

// ResultCollector is a Sink that retains every WindowResult, for
// callers that want all windows at once (with KeepMatrices, each
// window's frozen matrix too). It is inherently O(windows) memory —
// prefer streaming sinks for long traces. It declares no read set, so
// every retained result carries every field.
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
	// Workers is ignored: the pipeline always runs on the calling
	// goroutine.
	//
	// Deprecated: ignored. Run more pipelines at once (the scenario
	// engine's Config.Workers) to use more CPUs.
	Workers int
	// MaxWindows stops the pipeline after that many complete windows;
	// <= 0 streams until the source is exhausted. With a MaxWindows
	// bound the source is not consumed past the closing packet of the
	// final window.
	MaxWindows int
	// KeepMatrices populates WindowResult.Matrix with the frozen
	// spmat.Matrix of each window. Off by default: the matrix is a fresh
	// allocation per window, and it makes the run keep and sort the
	// window's keys source-major whatever its sinks read.
	KeepMatrices bool
	// KeepPartials populates WindowResult.Partial with the window's
	// deterministic mergeable partial aggregate (the same per-window
	// cost as KeepMatrices; both read the sorted links, so they share
	// one copy). The federation scenarios set it to merge per-site
	// windows into a backbone view.
	KeepPartials bool
	// Metrics, when non-nil, instruments the run: stage timers at block
	// and window granularity, builder accounting, and exact packet
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
// in runs of this size before entering the accumulator, so a
// NodeCounter's batched adds can overlap their cache misses and a
// Builder appends them in one copy. 256 keys = 2 KiB of stack.
const pairBatch = 256

// Run executes the streaming pipeline: it ingests packets from src on
// the calling goroutine, cuts fixed-NV windows, reduces each completed
// window to the union of what the sinks read, and feeds the results to
// the sinks in window order. With no sinks a window reduces to nothing
// but the products the Keep flags ask for. It returns when the source
// is exhausted, MaxWindows is reached, the source fails, or a sink
// returns an error.
func Run(src PacketSource, cfg PipelineConfig, sinks ...Sink) (PipelineStats, error) {
	stats := PipelineStats{SourcePacketsRead: -1}
	if src == nil {
		return stats, errors.New("stream: nil packet source")
	}
	if cfg.NV <= 0 {
		return stats, errors.New("stream: window size NV must be positive")
	}
	dec, ok := src.(EncodedBlockSource)
	if !ok {
		dec = packetDecoder{src}
	}
	err := run(dec, cfg, &stats, sinks)
	if c, ok := src.(PacketCounter); ok {
		stats.SourcePacketsRead = c.PacketsRead()
	}
	cfg.Metrics.settleStats(&stats)
	if err != nil {
		return stats, err
	}
	return stats, src.Err()
}

// run is Run's ingest loop: ingest, window reduce and sink delivery
// share the calling goroutine, and valid packets accumulate straight
// into the window's accumulator — no buffers, no channels, no
// goroutines. Over the PTRC reader this is the one-pass hot path:
// packed payloads decode directly into the window's accumulator.
func run(src EncodedBlockSource, cfg PipelineConfig, stats *PipelineStats, sinks []Sink) error {
	// Instrument handles are pulled once; with cfg.Metrics == nil they
	// are nil and every Start/Inc below is an inert branch.
	ingestT := cfg.Metrics.ingestTimer()
	closeT := cfg.Metrics.windowCloseTimer()
	sinkT := cfg.Metrics.sinkTimer()
	bAlloc, bReuse := cfg.Metrics.builderCounters()
	reads := unionReads(sinks...)

	w := newRunWindow(cfg.NV, reads, cfg)
	bAlloc.Inc()
	for t := 0; cfg.MaxWindows <= 0 || t < cfg.MaxWindows; {
		isp := ingestT.Start()
		valid, invalid, full, ok := src.DecodeInto(w)
		isp.Stop()
		stats.ValidPackets += valid
		stats.InvalidPackets += invalid
		if full {
			csp := closeT.Start()
			res, err := reduceWindow(t, w, cfg, reads)
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
			w.Reset()
			bReuse.Inc()
		}
		if !ok {
			break
		}
	}
	stats.DiscardedTail = w.n
	return nil
}

// PairWindow is one window under construction: the deposit target of
// DecodeInto. Every deposit of packed (src<<32 | dst) link keys goes
// straight into the window's accumulator: its spmat.Builder or, in a
// run that reads per-node packet totals and nothing else, its
// spmat.NodeCounter (see newRunWindow). Both are called concretely
// rather than through an interface, so a decoder's stack batch of keys
// does not escape to the heap.
type PairWindow struct {
	b  *spmat.Builder     // the sorted window; nil in a packets-only run
	c  *spmat.NodeCounter // per-node packet totals when b is nil
	n  int64              // valid packets deposited
	nv int64              // window size
}

// linkReads are the read-set fields reduced from unique links: the
// Table I aggregates (unique links, sources and destinations), the
// link-packets histogram, and the fan histograms (unique peers).
const linkReads = ReadAggregates | 1<<LinkPackets | 1<<SourceFanOut | 1<<DestinationFanIn

// Each side's node reductions; the aggregates read both sides.
const (
	sourceReads      = 1<<SourcePackets | 1<<SourceFanOut
	destinationReads = 1<<DestinationPackets | 1<<DestinationFanIn
)

// newRunWindow returns the window of a run that reads reads under cfg.
// The window keeps and sorts its keys exactly when something needs
// unique links: a read in linkReads, or a retained Matrix or Partial.
// Its sort is destination-major exactly when the run reads the
// destination side and nothing that needs source-major order (the
// source side, or a retained product, which is canonical (Src, Dst)),
// so that side reads off the window's one sort. Otherwise valid packets
// count straight into per-node packet tables, for the sides read only;
// a run that reads neither side (no sinks, say) counts its total alone.
func newRunWindow(nv int64, reads ReadSet, cfg PipelineConfig) *PairWindow {
	keep := cfg.KeepMatrices || cfg.KeepPartials
	switch {
	case reads&linkReads == 0 && !keep:
		c := spmat.NewNodeCounter(reads.has(SourcePackets), reads.has(DestinationPackets))
		return &PairWindow{c: c, nv: nv}
	case reads&destinationReads != 0 && reads&sourceReads == 0 && !keep:
		return &PairWindow{b: spmat.NewDestinationMajorBuilder(), nv: nv}
	}
	return NewPairWindow(nv)
}

// NewPairWindow returns an empty window of nv valid packets backed by
// its own source-major spmat.Builder. Run makes its own; the exported
// constructor exists for direct consumers of EncodedBlockSource (tests,
// custom replay tools).
func NewPairWindow(nv int64) *PairWindow {
	return &PairWindow{b: spmat.NewBuilder(), nv: nv}
}

// Remaining returns the number of valid packets the window still
// accepts. Fused decoders size their deposits by it.
func (w *PairWindow) Remaining() int64 { return w.nv - w.n }

// AddPairs deposits packed (src<<32 | dst) link keys of valid packets.
// len(keys) must not exceed Remaining(); the keys slice is not retained.
func (w *PairWindow) AddPairs(keys []uint64) {
	w.n += int64(len(keys))
	if w.b != nil {
		w.b.AddPairs(keys)
	} else {
		w.c.AddPairs(keys)
	}
}

// Reset empties the window for reuse, keeping the accumulator's
// buffers.
func (w *PairWindow) Reset() {
	if w.b != nil {
		w.b.Reset()
	} else {
		w.c.Reset()
	}
	w.n = 0
}

// nodePackets is what the packet histograms read: per-node packet
// totals, read off a Builder's sorted window or counted by a
// NodeCounter.
type nodePackets interface {
	Total() int64
	ForEachSourcePacket(f func(id uint32, n int64))
	ForEachDestinationPacket(f func(id uint32, n int64))
}

// reduceWindow converts a closed window's accumulator state into a
// WindowResult holding the fields in reads, with no intermediate Matrix.
// The packet histograms read whichever accumulator the run chose. The
// fields that need unique links (linkReads, and the Keep products)
// read the builder, which newRunWindow guarantees is there. Every
// reduction is an integer count, so nothing here depends on the order
// the builder visits nodes in. When both the partial and the matrix are
// kept they share one copy of the canonical entries.
func reduceWindow(t int, w *PairWindow, cfg PipelineConfig, reads ReadSet) (*WindowResult, error) {
	b := w.b // nil in a packets-only run
	var acc nodePackets = w.c
	if b != nil {
		acc = b
	}
	res := &WindowResult{T: t, NV: acc.Total()}
	if reads&ReadAggregates != 0 {
		res.Aggregates = b.Aggregates()
	}
	var err error
	if reads.has(SourcePackets) {
		if res.Hists[SourcePackets], err = histFromIter(acc.ForEachSourcePacket); err != nil {
			return nil, err
		}
	}
	if reads.has(SourceFanOut) {
		if res.Hists[SourceFanOut], err = histFromIter(b.ForEachSourceFanOut); err != nil {
			return nil, err
		}
	}
	if reads.has(DestinationFanIn) {
		if res.Hists[DestinationFanIn], err = histFromIter(b.ForEachDestinationFanIn); err != nil {
			return nil, err
		}
	}
	if reads.has(DestinationPackets) {
		if res.Hists[DestinationPackets], err = histFromIter(acc.ForEachDestinationPacket); err != nil {
			return nil, err
		}
	}
	if reads.has(LinkPackets) {
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
	}
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
		if res.Hists[q] == nil {
			return fmt.Errorf("stream: window %d has no %v histogram (not in the run's read set)", res.T, q)
		}
	}
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

// Reads implements DeclaredSink: the histograms of the accumulated
// quantities.
func (s *EnsembleSink) Reads() ReadSet { return ReadHists(s.qs...) }

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
