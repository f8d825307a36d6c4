package stream

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/spmat"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

func TestPipelineStats(t *testing.T) {
	// 1000 packets, every 2nd invalid: 500 valid. NV=200 -> 2 windows,
	// 100 valid packets discarded in the tail.
	ps := mkPackets(3, 1000, 50, 2)
	stats, err := Run(NewSliceSource(ps), PipelineConfig{NV: 200}, &ResultCollector{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 2 {
		t.Errorf("windows = %d, want 2", stats.Windows)
	}
	if stats.ValidPackets != 500 || stats.InvalidPackets != 500 {
		t.Errorf("valid/invalid = %d/%d, want 500/500", stats.ValidPackets, stats.InvalidPackets)
	}
	if stats.DiscardedTail != 100 {
		t.Errorf("discarded tail = %d, want 100", stats.DiscardedTail)
	}
}

// TestPipelineMaxWindowsStopsReading pins the no-read-ahead contract of
// the per-packet ingest: a MaxWindows-bounded run stops exactly at the
// packet that closes its final window, with invalid packets interleaved
// so that position differs from NV × MaxWindows.
func TestPipelineMaxWindowsStopsReading(t *testing.T) {
	const (
		nv         = 1000
		maxWindows = 2
	)
	ps := mkPackets(4, 10000, 64, 10) // every 10th packet invalid
	// closing is the 1-based trace position of the valid packet that
	// closes window maxWindows.
	closing, valid := 0, 0
	for valid < nv*maxWindows {
		if ps[closing].Valid {
			valid++
		}
		closing++
	}
	// One ingest loop reads the source; the subtest keeps its historic name.
	t.Run("workers1", func(t *testing.T) {
		src := NewSliceSource(ps)
		stats, err := Run(src, PipelineConfig{NV: nv, MaxWindows: maxWindows}, &ResultCollector{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Windows != maxWindows {
			t.Fatalf("windows = %d, want %d", stats.Windows, maxWindows)
		}
		// The source must not be consumed past the packet that closed the
		// final window: bounded read-ahead, no draining.
		if src.i != closing {
			t.Errorf("source consumed %d packets, want exactly %d", src.i, closing)
		}
		if stats.SourcePacketsRead != int64(closing) {
			t.Errorf("SourcePacketsRead = %d, want %d", stats.SourcePacketsRead, closing)
		}
		if stats.ValidPackets+stats.InvalidPackets != int64(closing) {
			t.Errorf("ingested %d+%d packets, want %d",
				stats.ValidPackets, stats.InvalidPackets, closing)
		}
		if stats.DiscardedTail != 0 {
			t.Errorf("discarded tail = %d, want 0 under MaxWindows", stats.DiscardedTail)
		}
	})
}

func TestPipelineShortStream(t *testing.T) {
	ps := mkPackets(5, 100, 20, 0)
	stats, err := Run(NewSliceSource(ps), PipelineConfig{NV: 1000}, &ResultCollector{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 0 {
		t.Errorf("windows = %d", stats.Windows)
	}
	if stats.DiscardedTail != 100 {
		t.Errorf("discarded tail = %d, want 100", stats.DiscardedTail)
	}
}

func TestPipelineRejectsBadConfig(t *testing.T) {
	if _, err := Run(nil, PipelineConfig{NV: 10}); err == nil {
		t.Error("nil source: expected error")
	}
	if _, err := Run(NewSliceSource(nil), PipelineConfig{NV: 0}); err == nil {
		t.Error("NV=0: expected error")
	}
}

func TestPipelineSinkErrorCancels(t *testing.T) {
	ps := mkPackets(6, 50000, 64, 0)
	src := NewSliceSource(ps)
	boom := errors.New("boom")
	windows := 0
	_, err := Run(src, PipelineConfig{NV: 100}, FuncSink(func(res *WindowResult) error {
		windows++
		if windows == 3 {
			return boom
		}
		return nil
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if src.i == len(ps) {
		t.Error("sink error did not stop ingestion early")
	}
}

func TestPipelineSourceErrorPropagates(t *testing.T) {
	// A malformed line mid-trace must surface with its line number.
	var buf bytes.Buffer
	if _, err := WriteTraceCSVFrom(&buf, NewSliceSource(mkPackets(7, 500, 16, 0))); err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(buf.String(), "\n", "\nbogus line here\n", 1)
	_, err := Run(NewCSVSource(strings.NewReader(corrupted)), PipelineConfig{NV: 100}, &ResultCollector{})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

func TestCSVSourceRoundTripThroughPipeline(t *testing.T) {
	ps := mkPackets(8, 20000, 100, 9)
	const nv = 700

	var buf bytes.Buffer
	if _, err := WriteTraceCSVFrom(&buf, NewSliceSource(ps)); err != nil {
		t.Fatal(err)
	}

	fromSlice := NewEnsembleSink()
	if _, err := Run(NewSliceSource(ps), PipelineConfig{NV: nv}, fromSlice); err != nil {
		t.Fatal(err)
	}
	fromCSV := NewEnsembleSink()
	stats, err := Run(NewCSVSource(&buf), PipelineConfig{NV: nv}, fromCSV)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows == 0 {
		t.Fatal("no windows from CSV replay")
	}
	for _, q := range Quantities {
		if !reflect.DeepEqual(fromSlice.Ensemble(q).Mean(), fromCSV.Ensemble(q).Mean()) {
			t.Errorf("%v: CSV replay ensemble differs from slice", q)
		}
		if !histEqual(fromSlice.Merged(q), fromCSV.Merged(q)) {
			t.Errorf("%v: CSV replay merged histogram differs from slice", q)
		}
	}
}

// TestEnsembleSinkFitters feeds a pipeline-filled EnsembleSink to the
// Fig. 3 fit, as the fig3 scenario and the CLIs do; a quantity the sink
// did not accumulate has no ensemble, and the fit reports it. The fit
// lives in zipfmand, which the pipeline itself never imports.
func TestEnsembleSinkFitters(t *testing.T) {
	ps := mkPackets(9, 40000, 256, 0)
	sink := NewEnsembleSink(SourceFanOut)
	if _, err := Run(NewSliceSource(ps), PipelineConfig{NV: 2000}, sink); err != nil {
		t.Fatal(err)
	}
	fit, err := zipfmand.FitEnsemble(sink.Ensemble(SourceFanOut), sink.Merged(SourceFanOut), zipfmand.DefaultFitOptions())
	if err != nil {
		t.Fatalf("FitEnsemble: %v", err)
	}
	if fit.Alpha <= 0 {
		t.Errorf("alpha = %v", fit.Alpha)
	}
	if _, err := zipfmand.FitEnsemble(sink.Ensemble(LinkPackets), sink.Merged(LinkPackets), zipfmand.DefaultFitOptions()); err == nil {
		t.Error("FitEnsemble on unaccumulated quantity: expected error")
	}
}

// TestTakeValid pins the recording contract: TakeValid(src, NV×W) yields
// exactly the prefix a MaxWindows-bounded pipeline run consumes, so an
// archive recorded through it replays bit-identically.
func TestTakeValid(t *testing.T) {
	trace := mkPackets(12, 5000, 32, 5)
	const nv, windows = 300, 4

	limited := TakeValid(NewSliceSource(trace), nv*windows)
	var prefix []Packet
	for {
		p, ok := limited.Next()
		if !ok {
			break
		}
		prefix = append(prefix, p)
	}
	if err := limited.Err(); err != nil {
		t.Fatal(err)
	}
	valid := 0
	for _, p := range prefix {
		if p.Valid {
			valid++
		}
	}
	if valid != nv*windows {
		t.Fatalf("prefix holds %d valid packets, want %d", valid, nv*windows)
	}
	if !prefix[len(prefix)-1].Valid {
		t.Error("prefix must end on its closing valid packet")
	}
	if c, ok := limited.(PacketCounter); !ok || c.PacketsRead() != int64(len(prefix)) {
		t.Error("TakeValid source miscounts PacketsRead")
	}

	// The bounded pipeline consumes exactly the same prefix.
	src := NewSliceSource(trace)
	stats, err := Run(src, PipelineConfig{NV: nv, MaxWindows: windows},
		FuncSink(func(*WindowResult) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != windows {
		t.Fatalf("windows = %d", stats.Windows)
	}
	if stats.SourcePacketsRead != int64(len(prefix)) {
		t.Errorf("pipeline consumed %d packets, TakeValid prefix is %d",
			stats.SourcePacketsRead, len(prefix))
	}

	// Short stream: TakeValid ends early without error.
	short := TakeValid(NewSliceSource(trace[:10]), 1<<30)
	n := 0
	for {
		if _, ok := short.Next(); !ok {
			break
		}
		n++
	}
	if n != 10 || short.Err() != nil {
		t.Errorf("short stream: delivered %d, err %v", n, short.Err())
	}
}

// synthSource deterministically generates a bounded random trace:
// replaying the same seed yields the identical packet sequence, so the
// pipeline and its references consume the same trace without
// materializing it.
type synthSource struct {
	r     *xrand.RNG
	n, i  int64
	nodes int
	// invalidEvery > 0 marks every k-th packet invalid.
	invalidEvery int64
}

func newSynthSource(seed uint64, n int64, nodes int, invalidEvery int64) *synthSource {
	return &synthSource{r: xrand.New(seed), n: n, nodes: nodes, invalidEvery: invalidEvery}
}

func (s *synthSource) Next() (Packet, bool) {
	if s.i >= s.n {
		return Packet{}, false
	}
	s.i++
	p := Packet{
		Src:   uint32(s.r.Intn(s.nodes)),
		Dst:   uint32(s.r.Intn(s.nodes)),
		Valid: true,
	}
	// A light heavy-tail: a quarter of traffic converges on a small hub
	// set, so link counts exceed one and fan histograms have structure.
	if s.r.Intn(4) == 0 {
		p.Dst = uint32(s.r.Intn(16))
	}
	if s.invalidEvery > 0 && s.i%s.invalidEvery == 0 {
		p.Valid = false
	}
	return p, true
}

func (s *synthSource) Err() error { return nil }

// mapReduceWindows is the pipeline's behavioral reference: one
// goroutine, Go maps, window by window. It returns the five quantity
// histograms and aggregates of every complete window, and each window's
// link counts sorted by (src, dst).
func mapReduceWindows(src PacketSource, nv int64, maxWindows int) ([]*WindowResult, [][]spmat.Entry) {
	type mapWin struct {
		counts map[[2]uint32]int64
		srcPk  map[uint32]int64
		dstPk  map[uint32]int64
		fanOut map[uint32]int64
		fanIn  map[uint32]int64
		total  int64
	}
	fresh := func() *mapWin {
		return &mapWin{
			counts: make(map[[2]uint32]int64),
			srcPk:  make(map[uint32]int64),
			dstPk:  make(map[uint32]int64),
			fanOut: make(map[uint32]int64),
			fanIn:  make(map[uint32]int64),
		}
	}
	histOf := func(m map[uint32]int64) *hist.Histogram {
		h := hist.New()
		for _, v := range m {
			if err := h.AddN(int(v), 1); err != nil {
				panic(err)
			}
		}
		return h
	}
	var (
		out   []*WindowResult
		links [][]spmat.Entry
	)
	w := fresh()
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		if !p.Valid {
			continue
		}
		k := [2]uint32{p.Src, p.Dst}
		c := w.counts[k]
		w.counts[k] = c + 1
		if c == 0 {
			w.fanOut[p.Src]++
			w.fanIn[p.Dst]++
		}
		w.srcPk[p.Src]++
		w.dstPk[p.Dst]++
		w.total++
		if w.total < nv {
			continue
		}
		res := &WindowResult{T: len(out), NV: w.total}
		res.Aggregates.ValidPackets = w.total
		res.Aggregates.UniqueLinks = int64(len(w.counts))
		res.Aggregates.UniqueSources = int64(len(w.srcPk))
		res.Aggregates.UniqueDestinations = int64(len(w.dstPk))
		res.Hists[SourcePackets] = histOf(w.srcPk)
		res.Hists[SourceFanOut] = histOf(w.fanOut)
		res.Hists[DestinationFanIn] = histOf(w.fanIn)
		res.Hists[DestinationPackets] = histOf(w.dstPk)
		lp := hist.New()
		for _, v := range w.counts {
			if err := lp.AddN(int(v), 1); err != nil {
				panic(err)
			}
		}
		res.Hists[LinkPackets] = lp
		out = append(out, res)
		es := make([]spmat.Entry, 0, len(w.counts))
		for k, c := range w.counts {
			es = append(es, spmat.Entry{Src: k[0], Dst: k[1], Count: c})
		}
		slices.SortFunc(es, func(a, b spmat.Entry) int {
			if c := cmp.Compare(a.Src, b.Src); c != 0 {
				return c
			}
			return cmp.Compare(a.Dst, b.Dst)
		})
		links = append(links, es)
		if maxWindows > 0 && len(out) >= maxWindows {
			break
		}
		w = fresh()
	}
	return out, links
}

// renderWindows serializes window results into the byte form a sink
// artifact would carry: aggregates plus every histogram's full
// (degree, count) support, in order. Byte equality here is the
// acceptance bar for "sinks observe byte-identical sequences".
func renderWindows(wins []*WindowResult) []byte {
	var b bytes.Buffer
	for _, w := range wins {
		fmt.Fprintf(&b, "t=%d nv=%d agg=%+v\n", w.T, w.NV, w.Aggregates)
		for _, q := range Quantities {
			h := w.Hists[q]
			fmt.Fprintf(&b, "%v total=%d dmax=%d:", q, h.Total(), h.MaxDegree())
			for _, d := range h.Support() {
				fmt.Fprintf(&b, " %d=%d", d, h.Count(d))
			}
			b.WriteByte('\n')
			p, err := h.Pool()
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(&b, "pooled=%v\n", p.D)
		}
	}
	return b.Bytes()
}

// TestPipelineMatchesMapReference pins the pipeline against the map
// reference on random traces with interleaved invalid packets: per
// window T and NV, the kept matrix's entries, the aggregates (against
// the reference and the matrix), all five quantity histograms and the
// serialized sink artifact must be identical, and an EnsembleSink
// beside the collector must hold the reference's ensembles, pooled
// window by window in order, and its merged histograms.
func TestPipelineMatchesMapReference(t *testing.T) {
	type trace struct {
		name string
		src  func() PacketSource
		nv   int64
	}
	var traces []trace
	// Sparse: a large id space with a hub set, 12 windows of 10k packets.
	for seed := uint64(1); seed <= 3; seed++ {
		traces = append(traces, trace{fmt.Sprintf("synth-%d", seed), func() PacketSource {
			return newSynthSource(seed, 120000, 3000, 37)
		}, 10000})
	}
	// Dense: 200 ids, so links repeat often; ~25 windows of 1k packets.
	for seed := uint64(1); seed <= 5; seed++ {
		ps := mkPackets(seed, 30000, 200, 7)
		traces = append(traces, trace{fmt.Sprintf("dense-%d", seed), func() PacketSource {
			return NewSliceSource(ps)
		}, 1000})
	}
	for _, tr := range traces {
		ref, refLinks := mapReduceWindows(tr.src(), tr.nv, 0)
		var col ResultCollector
		ensSink := NewEnsembleSink()
		stats, err := Run(tr.src(), PipelineConfig{NV: tr.nv, KeepMatrices: true}, &col, ensSink)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Windows != len(col.Results) || len(col.Results) != len(ref) {
			t.Fatalf("%s: stats.Windows=%d, collected %d, reference %d",
				tr.name, stats.Windows, len(col.Results), len(ref))
		}
		if !bytes.Equal(renderWindows(col.Results), renderWindows(ref)) {
			t.Fatalf("%s: pipeline diverges from map reference", tr.name)
		}
		var refEns [NumQuantities]*hist.Ensemble
		var refMerged [NumQuantities]*hist.Histogram
		for _, q := range Quantities {
			refEns[q], refMerged[q] = hist.NewEnsemble(), hist.New()
		}
		for i, res := range col.Results {
			if !reflect.DeepEqual(res.Matrix.Entries(), refLinks[i]) {
				t.Fatalf("%s window %d: matrix entries differ from reference links", tr.name, i)
			}
			if res.Aggregates != res.Matrix.TableI() {
				t.Fatalf("%s window %d: aggregates %+v != matrix %+v",
					tr.name, i, res.Aggregates, res.Matrix.TableI())
			}
			for _, q := range Quantities {
				h := ref[i].Hists[q]
				refMerged[q].Merge(h)
				p, err := h.Pool()
				if err != nil {
					t.Fatal(err)
				}
				refEns[q].Add(p)
			}
		}
		for _, q := range Quantities {
			if !reflect.DeepEqual(refEns[q].Mean(), ensSink.Ensemble(q).Mean()) {
				t.Fatalf("%s: %v ensemble mean differs", tr.name, q)
			}
			if !reflect.DeepEqual(refEns[q].Sigma(), ensSink.Ensemble(q).Sigma()) {
				t.Fatalf("%s: %v ensemble sigma differs", tr.name, q)
			}
			if !histEqual(refMerged[q], ensSink.Merged(q)) {
				t.Fatalf("%s: %v merged histogram differs", tr.name, q)
			}
		}
	}
}

// TestPartialsUnderSharding pins that ReducePartial round-trips each
// KeepPartials window to its exact aggregates and histograms, in full
// and under a declared read set, and that a PartialSink without
// KeepPartials fails fast.
func TestPartialsUnderSharding(t *testing.T) {
	const (
		n  = 60000
		nv = 15000
	)
	parts := &PartialSink{}
	if _, err := Run(newSynthSource(5, n, 2000, 0), PipelineConfig{NV: nv, KeepPartials: true}, parts); err != nil {
		t.Fatal(err)
	}
	if len(parts.Partials) == 0 {
		t.Fatal("no partials collected")
	}
	// Round-trip: reduce the partial and compare to the pipeline window.
	var col ResultCollector
	src := newSynthSource(5, n, 2000, 0)
	if _, err := Run(src, PipelineConfig{NV: nv}, &col); err != nil {
		t.Fatal(err)
	}
	for i, p := range parts.Partials {
		res, err := ReducePartial(i, p, false)
		if err != nil {
			t.Fatal(err)
		}
		want := col.Results[i]
		if res.Aggregates != want.Aggregates || res.NV != want.NV {
			t.Fatalf("window %d: reduced partial aggregates diverge", i)
		}
		if !bytes.Equal(renderWindows([]*WindowResult{res}), renderWindows([]*WindowResult{want})) {
			t.Fatalf("window %d: reduced partial histograms diverge", i)
		}
		// A declared reduce builds the union of its read sets alone,
		// each field equal to the full one (the backbone's reads).
		reads := []ReadSet{ReadHists(SourcePackets), ReadAggregates}
		res, err = ReducePartial(i, p, false, reads...)
		if err != nil {
			t.Fatal(err)
		}
		checkReadFields(t, "declared partial reduce", PipelineConfig{}, reads[0]|reads[1], res, want)
	}
	// A PartialSink without KeepPartials must fail fast.
	if _, err := Run(newSynthSource(5, nv+1, 2000, 0), PipelineConfig{NV: nv}, &PartialSink{}); err == nil {
		t.Fatal("PartialSink without KeepPartials should error")
	}
}
