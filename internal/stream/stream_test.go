package stream

import (
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/xrand"
)

func mkPackets(seed uint64, n, universe int, invalidEvery int) []Packet {
	r := xrand.New(seed)
	ps := make([]Packet, n)
	for i := range ps {
		ps[i] = Packet{
			Src:   uint32(r.Intn(universe)),
			Dst:   uint32(r.Intn(universe)),
			Valid: invalidEvery == 0 || i%invalidEvery != 0,
		}
	}
	return ps
}

// collect runs ps through the pipeline with matrices kept and returns
// every window with the run's stats.
func collect(t *testing.T, ps []Packet, nv int64) ([]*WindowResult, PipelineStats) {
	t.Helper()
	var col ResultCollector
	stats, err := Run(NewSliceSource(ps), PipelineConfig{NV: nv, KeepMatrices: true}, &col)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != len(col.Results) {
		t.Fatalf("stats.Windows = %d, collected %d", stats.Windows, len(col.Results))
	}
	return col.Results, stats
}

func TestWindowerExactNV(t *testing.T) {
	ps := mkPackets(1, 1000, 50, 0)
	wins, stats := collect(t, ps, 100)
	if len(wins) != 10 {
		t.Fatalf("windows = %d, want 10", len(wins))
	}
	for i, w := range wins {
		if w.T != i {
			t.Errorf("window %d has T=%d", i, w.T)
		}
		if w.NV != 100 {
			t.Errorf("window %d NV=%d", i, w.NV)
		}
		if w.Matrix.ValidPackets() != 100 {
			t.Errorf("window %d matrix total=%d", i, w.Matrix.ValidPackets())
		}
	}
	if stats.DiscardedTail != 0 {
		t.Errorf("discarded tail = %d, want 0", stats.DiscardedTail)
	}
}

func TestWindowerSkipsInvalid(t *testing.T) {
	// Every 2nd packet invalid: 1000 packets -> 500 valid -> 5 windows of 100.
	ps := mkPackets(2, 1000, 50, 2)
	wins, stats := collect(t, ps, 100)
	if len(wins) != 5 {
		t.Fatalf("windows = %d, want 5", len(wins))
	}
	if stats.InvalidPackets != 500 {
		t.Errorf("invalid packets = %d, want 500", stats.InvalidPackets)
	}
	for i, w := range wins {
		if w.Matrix.ValidPackets() != 100 {
			t.Errorf("window %d matrix total=%d, want 100", i, w.Matrix.ValidPackets())
		}
	}
}

func TestWindowerPartialDiscarded(t *testing.T) {
	ps := mkPackets(3, 250, 20, 0)
	wins, stats := collect(t, ps, 100)
	if len(wins) != 2 {
		t.Errorf("windows = %d, want 2 (50 trailing packets discarded)", len(wins))
	}
	if stats.DiscardedTail != 50 {
		t.Errorf("discarded tail = %d, want 50", stats.DiscardedTail)
	}
}

func TestWindowerShortStream(t *testing.T) {
	// Too few valid packets for one window, whether the stream is short
	// or mostly invalid: the run succeeds with zero windows, and callers
	// that need a window report ErrShortStream themselves.
	for _, ps := range [][]Packet{
		mkPackets(4, 50, 20, 0),
		mkPackets(4, 5000, 20, 1), // every packet invalid
	} {
		wins, stats := collect(t, ps, 100)
		if len(wins) != 0 {
			t.Errorf("windows = %d, want 0", len(wins))
		}
		if stats.ValidPackets != stats.DiscardedTail {
			t.Errorf("valid %d != discarded tail %d", stats.ValidPackets, stats.DiscardedTail)
		}
	}
}

func TestWindowerBadNV(t *testing.T) {
	for _, nv := range []int64{0, -5} {
		called := false
		_, err := Run(NewSliceSource(mkPackets(5, 100, 10, 0)), PipelineConfig{NV: nv},
			FuncSink(func(*WindowResult) error { called = true; return nil }))
		if err == nil {
			t.Errorf("NV=%d: expected error", nv)
		}
		if called {
			t.Errorf("NV=%d: a sink received a window", nv)
		}
	}
}

func TestWindowerPending(t *testing.T) {
	// Seven valid packets and one invalid one, NV=10: no window closes,
	// the seven are the discarded tail, and the invalid packet did not
	// advance the window.
	ps := make([]Packet, 0, 8)
	for i := 0; i < 7; i++ {
		ps = append(ps, Packet{Src: 1, Dst: 2, Valid: true})
	}
	ps = append(ps, Packet{Src: 1, Dst: 2, Valid: false})
	wins, stats := collect(t, ps, 10)
	if len(wins) != 0 {
		t.Fatal("window completed early")
	}
	if stats.DiscardedTail != 7 || stats.ValidPackets != 7 || stats.InvalidPackets != 1 {
		t.Errorf("tail/valid/invalid = %d/%d/%d, want 7/7/1",
			stats.DiscardedTail, stats.ValidPackets, stats.InvalidPackets)
	}
}

func TestQuantityNames(t *testing.T) {
	names := map[Quantity]string{
		SourcePackets:      "source packets",
		SourceFanOut:       "source fan-out",
		LinkPackets:        "link packets",
		DestinationFanIn:   "destination fan-in",
		DestinationPackets: "destination packets",
	}
	for q, want := range names {
		if q.String() != want {
			t.Errorf("%d.String() = %q", int(q), q.String())
		}
	}
	if Quantity(99).String() == "" {
		t.Error("unknown quantity should still stringify")
	}
}

func TestParseQuantity(t *testing.T) {
	for i, name := range QuantityFlagNames {
		q, err := ParseQuantity(name)
		if err != nil || q != Quantities[i] {
			t.Errorf("ParseQuantity(%q) = %v, %v; want %v", name, q, err, Quantities[i])
		}
	}
	_, err := ParseQuantity("bogus")
	const want = `unknown quantity "bogus" (want one of source-packets|fan-out|link-packets|fan-in|dest-packets)`
	if err == nil || err.Error() != want {
		t.Errorf("ParseQuantity(bogus) error = %v, want %s", err, want)
	}
}

func TestQuantityHistogramIdentities(t *testing.T) {
	ps := mkPackets(5, 5000, 100, 0)
	wins, _ := collect(t, ps, 5000)
	if len(wins) != 1 {
		t.Fatalf("windows = %d, want 1", len(wins))
	}
	w := wins[0]
	if w.Aggregates != w.Matrix.TableI() {
		t.Errorf("aggregates %+v != matrix %+v", w.Aggregates, w.Matrix.TableI())
	}
	// Total of the packet histograms' values weighted by degree == NV.
	for _, q := range []Quantity{SourcePackets, DestinationPackets} {
		var weighted int64
		for _, d := range w.Hists[q].Support() {
			weighted += int64(d) * w.Hists[q].Count(d)
		}
		if weighted != w.NV {
			t.Errorf("sum d*n(d) over %v = %d, want NV=%d", q, weighted, w.NV)
		}
	}
	// Each histogram's number of observations == its unique entities.
	for _, c := range []struct {
		q    Quantity
		want int64
	}{
		{LinkPackets, w.Matrix.UniqueLinks()},
		{SourceFanOut, w.Matrix.UniqueSources()},
		{DestinationFanIn, w.Matrix.UniqueDestinations()},
	} {
		if got := w.Hists[c.q].Total(); got != c.want {
			t.Errorf("%v total = %d, want %d unique", c.q, got, c.want)
		}
	}
}

func histEqual(a, b *hist.Histogram) bool {
	if a.Total() != b.Total() {
		return false
	}
	for _, d := range a.Support() {
		if a.Count(d) != b.Count(d) {
			return false
		}
	}
	return true
}
