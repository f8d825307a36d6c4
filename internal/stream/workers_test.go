package stream

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/model"
	"hybridplaw/internal/xrand"
)

// synthSource deterministically generates a bounded random trace:
// replaying the same seed yields the identical packet sequence, so the
// serial reference and every worker configuration consume the
// same trace without materializing it.
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

// mapReduceWindows is the pre-refactor reduction kept as a behavioral
// reference: one goroutine, Go maps, window by window. It returns the
// five quantity histograms and aggregates of every complete window.
func mapReduceWindows(src PacketSource, nv int64, maxWindows int) []*WindowResult {
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
	var out []*WindowResult
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
		if maxWindows > 0 && len(out) >= maxWindows {
			return out
		}
		w = fresh()
	}
	return out
}

// renderWindows serializes window results into the byte form a sink
// artifact would carry: aggregates plus every histogram's full
// (degree, count) support, in order. Byte equality here is the
// acceptance bar for "all sinks observe byte-identical sequences".
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

func collectWith(t *testing.T, seed uint64, n, nv int64, workers int) []*WindowResult {
	t.Helper()
	src := newSynthSource(seed, n, 3000, 37)
	var col ResultCollector
	stats, err := Run(src, PipelineConfig{NV: nv, Workers: workers}, &col)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if stats.Windows != len(col.Results) {
		t.Fatalf("stats.Windows=%d, collected %d", stats.Windows, len(col.Results))
	}
	return col.Results
}

// TestWorkersEquivalentToSerial is the workers ≡ serial property pin:
// for random traces, all five quantity histograms, the aggregates, and
// the serialized sink artifact must be byte-identical at every tested
// worker count, and identical to the pre-refactor map-based reference.
func TestWorkersEquivalentToSerial(t *testing.T) {
	const (
		n  = 120000
		nv = 10000
	)
	for seed := uint64(1); seed <= 3; seed++ {
		ref := mapReduceWindows(newSynthSource(seed, n, 3000, 37), nv, 0)
		refBytes := renderWindows(ref)
		serial := collectWith(t, seed, n, nv, 1)
		if len(serial) != len(ref) {
			t.Fatalf("seed %d: pipeline windows %d, reference %d", seed, len(serial), len(ref))
		}
		if !bytes.Equal(renderWindows(serial), refBytes) {
			t.Fatalf("seed %d: serial pipeline diverges from map reference", seed)
		}
		for _, workers := range []int{2, 4} {
			got := collectWith(t, seed, n, nv, workers)
			if !bytes.Equal(renderWindows(got), refBytes) {
				t.Errorf("seed %d workers=%d: windows diverge from serial reference", seed, workers)
			}
		}
	}
}

// TestWorkersFitSinkIdentical pins that FitSink — the most derived sink
// — records identical per-window fits at any worker count, because it
// observes identical histograms.
func TestWorkersFitSinkIdentical(t *testing.T) {
	const (
		n  = 80000
		nv = 20000
	)
	reg := model.Default()
	run := func(workers int) []WindowFits {
		sink, err := NewFitSink(SourcePackets, reg, "zm", "csn")
		if err != nil {
			t.Fatal(err)
		}
		src := newSynthSource(11, n, 3000, 37)
		if _, err := Run(src, PipelineConfig{NV: nv, Workers: workers}, sink); err != nil {
			t.Fatal(err)
		}
		return sink.Windows
	}
	ref := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d windows, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			for j := range ref[i].Results {
				refErr, gotErr := ref[i].Errs[j], got[i].Errs[j]
				if (refErr == nil) != (gotErr == nil) ||
					(refErr != nil && refErr.Error() != gotErr.Error()) {
					t.Fatalf("window %d fitter %d: error mismatch: %v vs %v", i, j, refErr, gotErr)
				}
				if refErr == nil {
					r, g := ref[i].Results[j], got[i].Results[j]
					if r.ParamString() != g.ParamString() || r.LogLik != g.LogLik || r.AIC != g.AIC {
						t.Fatalf("workers=%d window %d fitter %d: fit diverges", workers, i, j)
					}
				}
			}
		}
	}
}

// TestPartialsUnderSharding pins that KeepPartials yields identical
// canonical partials at any worker count, and that ReducePartial
// round-trips a window to its exact histograms.
func TestPartialsUnderSharding(t *testing.T) {
	const (
		n  = 60000
		nv = 15000
	)
	run := func(workers int) *PartialSink {
		sink := &PartialSink{}
		src := newSynthSource(5, n, 2000, 0)
		cfg := PipelineConfig{NV: nv, Workers: workers, KeepPartials: true}
		if _, err := Run(src, cfg, sink); err != nil {
			t.Fatal(err)
		}
		return sink
	}
	ref := run(1)
	if len(ref.Partials) == 0 {
		t.Fatal("no partials collected")
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if len(got.Partials) != len(ref.Partials) {
			t.Fatalf("partial count mismatch: %d vs %d", len(got.Partials), len(ref.Partials))
		}
		for i := range ref.Partials {
			if !reflect.DeepEqual(ref.Partials[i].Entries(), got.Partials[i].Entries()) {
				t.Fatalf("window %d: partial entries diverge under workers=%d", i, workers)
			}
		}
	}
	// Round-trip: reduce the partial and compare to the pipeline window.
	var col ResultCollector
	src := newSynthSource(5, n, 2000, 0)
	if _, err := Run(src, PipelineConfig{NV: nv}, &col); err != nil {
		t.Fatal(err)
	}
	for i, p := range ref.Partials {
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
	}
	// A PartialSink without KeepPartials must fail fast.
	if _, err := Run(newSynthSource(5, nv+1, 2000, 0), PipelineConfig{NV: nv}, &PartialSink{}); err == nil {
		t.Fatal("PartialSink without KeepPartials should error")
	}
}
