package stream

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/spmat"
)

// spySink records every WindowResult of its run and declares an empty
// read set, so it observes what a run reduces without widening it.
type spySink struct{ got []*WindowResult }

func (s *spySink) ConsumeWindow(res *WindowResult) error {
	s.got = append(s.got, res)
	return nil
}

func (s *spySink) Reads() ReadSet { return 0 }

// declaredCollector is a ResultCollector with a declared read set, as
// the table1 and fig1 scenarios collect their window.
type declaredCollector struct {
	ResultCollector
	reads ReadSet
}

func (c *declaredCollector) Reads() ReadSet { return c.reads }

// underDeclared wraps a sink with a read set that omits what it reads.
type underDeclared struct{ Sink }

func (underDeclared) Reads() ReadSet { return 0 }

// readsTrace is the several-window synthetic trace of the read-set pins.
func readsTrace() PacketSource { return newSynthSource(11, 50000, 2500, 37) }

const readsNV = 8000

// checkReadFields compares one window of a declared run against the
// same window of a full reduce: every field in reads must be equal, and
// every field outside it must be zero or nil. Matrix and Partial follow
// the run's Keep flags instead.
func checkReadFields(t *testing.T, name string, cfg PipelineConfig, reads ReadSet, got, want *WindowResult) {
	t.Helper()
	if got.T != want.T || got.NV != want.NV {
		t.Errorf("%s: window T=%d NV=%d, full reduce T=%d NV=%d", name, got.T, got.NV, want.T, want.NV)
	}
	if reads&ReadAggregates != 0 {
		if got.Aggregates != want.Aggregates {
			t.Errorf("%s window %d: aggregates %+v, full reduce %+v", name, got.T, got.Aggregates, want.Aggregates)
		}
	} else if got.Aggregates != (spmat.Aggregates{}) {
		t.Errorf("%s window %d: unread aggregates are %+v, want zero", name, got.T, got.Aggregates)
	}
	for _, q := range Quantities {
		h := got.Hists[q]
		if !reads.has(q) {
			if h != nil {
				t.Errorf("%s window %d: unread %v histogram is not nil", name, got.T, q)
			}
			continue
		}
		w := want.Hists[q]
		if h == nil || !histEqual(h, w) || h.MaxDegree() != w.MaxDegree() {
			t.Errorf("%s window %d: %v histogram differs from the full reduce", name, got.T, q)
		}
	}
	if cfg.KeepMatrices != (got.Matrix != nil) {
		t.Errorf("%s window %d: KeepMatrices=%v but Matrix set=%v", name, got.T, cfg.KeepMatrices, got.Matrix != nil)
	} else if got.Matrix != nil && !reflect.DeepEqual(got.Matrix.Entries(), want.Matrix.Entries()) {
		t.Errorf("%s window %d: matrix differs from the full reduce", name, got.T)
	}
	if cfg.KeepPartials != (got.Partial != nil) {
		t.Errorf("%s window %d: KeepPartials=%v but Partial set=%v", name, got.T, cfg.KeepPartials, got.Partial != nil)
	} else if got.Partial != nil && !reflect.DeepEqual(*got.Partial, *want.Partial) {
		t.Errorf("%s window %d: partial differs from the full reduce", name, got.T)
	}
}

// TestReadSetPins pins the per-window reduce of every sink combination
// the scenario registry runs against the full reduce, field for field:
// a run builds exactly the union of its sinks' declared reads, and what
// it builds equals what the full reduce builds.
func TestReadSetPins(t *testing.T) {
	var full ResultCollector
	if _, err := Run(readsTrace(), PipelineConfig{NV: readsNV, KeepMatrices: true, KeepPartials: true}, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Results) < 4 {
		t.Fatalf("trace cut into %d windows, want several", len(full.Results))
	}

	type combo struct {
		name  string
		cfg   PipelineConfig
		sinks []Sink
		reads ReadSet
	}
	var combos []combo
	for _, q := range Quantities { // fig3/* and modelsel/*
		combos = append(combos, combo{"ensemble/" + q.String(), PipelineConfig{},
			[]Sink{NewEnsembleSink(q)}, ReadHists(q)})
	}
	// Packets-only runs skip the link table unless a Keep flag needs it.
	packets := ReadHists(SourcePackets, DestinationPackets)
	combos = append(combos,
		combo{"source and destination packets", PipelineConfig{},
			[]Sink{NewEnsembleSink(SourcePackets, DestinationPackets)}, packets},
		combo{"source packets beside destination packets", PipelineConfig{},
			[]Sink{NewEnsembleSink(SourcePackets), NewEnsembleSink(DestinationPackets)}, packets},
		combo{"source packets, KeepMatrices", PipelineConfig{KeepMatrices: true},
			[]Sink{NewEnsembleSink(SourcePackets)}, ReadHists(SourcePackets)},
		combo{"destination packets, KeepPartials", PipelineConfig{KeepPartials: true},
			[]Sink{NewEnsembleSink(DestinationPackets)}, ReadHists(DestinationPackets)},
		combo{"no sinks, KeepMatrices", PipelineConfig{KeepMatrices: true}, nil, 0},
	)
	combos = append(combos,
		combo{"federation site", PipelineConfig{},
			[]Sink{NewEnsembleSink(SourcePackets), &AggregatesSink{}}, ReadHists(SourcePackets) | ReadAggregates},
		combo{"federation partials", PipelineConfig{KeepPartials: true},
			[]Sink{&PartialSink{}}, 0},
		combo{"table1", PipelineConfig{KeepMatrices: true},
			[]Sink{&declaredCollector{reads: ReadAggregates}}, ReadAggregates},
		combo{"fig1", PipelineConfig{},
			[]Sink{&declaredCollector{reads: ReadHists(Quantities...)}}, ReadHists(Quantities...)},
		combo{"undeclared collector", PipelineConfig{}, []Sink{&ResultCollector{}}, readAll},
		combo{"no sinks", PipelineConfig{}, nil, 0},
		combo{"undeclared beside declared", PipelineConfig{},
			[]Sink{NewEnsembleSink(LinkPackets), FuncSink(func(*WindowResult) error { return nil })}, readAll},
	)
	for _, c := range combos {
		if got := unionReads(c.sinks...); got != c.reads {
			t.Errorf("%s: unionReads = %#x, want %#x", c.name, got, c.reads)
			continue
		}
		c.cfg.NV = readsNV
		spy := &spySink{}
		if _, err := Run(readsTrace(), c.cfg, append(c.sinks, spy)...); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(spy.got) != len(full.Results) {
			t.Fatalf("%s: %d windows, full reduce %d", c.name, len(spy.got), len(full.Results))
		}
		for i, got := range spy.got {
			checkReadFields(t, c.name, c.cfg, c.reads, got, full.Results[i])
		}
	}

	// An undeclared FuncSink receives all five histograms and the
	// aggregates, as every sink did before read sets existed.
	var seen []*WindowResult
	record := FuncSink(func(res *WindowResult) error {
		seen = append(seen, res)
		return nil
	})
	if _, err := Run(readsTrace(), PipelineConfig{NV: readsNV}, record); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(full.Results) {
		t.Fatalf("FuncSink saw %d windows, full reduce %d", len(seen), len(full.Results))
	}
	for i, got := range seen {
		checkReadFields(t, "FuncSink", PipelineConfig{}, readAll, got, full.Results[i])
	}
}

// TestLinkTableRule pins which accumulator a run's windows fill, for
// every read set under every retention flag: the link table (a Builder)
// exactly when the run reads the aggregates, the link-packets or a fan
// histogram, or keeps matrices or partials; per-node packet counts
// otherwise. Each run's windows must equal the full reduce field by
// field, so a run that needs the link table and lost it fails here too.
func TestLinkTableRule(t *testing.T) {
	trace := func() PacketSource { return newSynthSource(5, 9000, 900, 23) }
	const nv = 2000
	var full ResultCollector
	if _, err := Run(trace(), PipelineConfig{NV: nv, KeepMatrices: true, KeepPartials: true}, &full); err != nil {
		t.Fatal(err)
	}
	linkQuantities := ReadHists(LinkPackets, SourceFanOut, DestinationFanIn)
	for _, cfg := range []PipelineConfig{{}, {KeepMatrices: true}, {KeepPartials: true}} {
		for reads := ReadSet(0); reads <= readAll; reads++ {
			wantLinks := reads&ReadAggregates != 0 || reads&linkQuantities != 0 ||
				cfg.KeepMatrices || cfg.KeepPartials
			if links := newRunWindow(nv, reads, cfg).b != nil; links != wantLinks {
				t.Errorf("reads %#x, %+v: link table built = %v, want %v", reads, cfg, links, wantLinks)
			}
			cfg.NV = nv
			sink := &declaredCollector{reads: reads}
			if _, err := Run(trace(), cfg, sink); err != nil {
				t.Fatalf("reads %#x, %+v: %v", reads, cfg, err)
			}
			if len(sink.Results) != len(full.Results) {
				t.Fatalf("reads %#x: %d windows, full reduce %d", reads, len(sink.Results), len(full.Results))
			}
			for i, got := range sink.Results {
				checkReadFields(t, fmt.Sprintf("reads %#x", reads), cfg, reads, got, full.Results[i])
			}
		}
	}
}

// TestSinksRejectUnreadHistograms pins the loud failure of a sink that
// reaches a histogram its run did not build: a hand-built WindowResult
// or an under-declared sink yields an error naming the window and the
// quantity, not a nil-pointer panic.
func TestSinksRejectUnreadHistograms(t *testing.T) {
	res := &WindowResult{T: 3}
	res.Hists[SourcePackets] = hist.New()
	if err := res.Hists[SourcePackets].AddN(2, 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sink Sink
		want string
	}{
		{NewEnsembleSink(SourcePackets, LinkPackets), "window 3 has no link packets histogram"},
		{NewEnsembleSink(DestinationFanIn), "window 3 has no destination fan-in histogram"},
	} {
		err := c.sink.ConsumeWindow(res)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%T: ConsumeWindow = %v, want an error containing %q", c.sink, err, c.want)
		}
	}

	_, err := Run(readsTrace(), PipelineConfig{NV: readsNV}, underDeclared{NewEnsembleSink(SourceFanOut)})
	if err == nil || !strings.Contains(err.Error(), "window 0 has no source fan-out histogram") {
		t.Errorf("under-declared sink: Run = %v, want a missing-histogram error for window 0", err)
	}
}
