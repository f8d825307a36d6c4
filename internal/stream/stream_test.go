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

func TestWindowerExactNV(t *testing.T) {
	ps := mkPackets(1, 1000, 50, 0)
	wins, err := Cut(ps, 100)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestWindowerSkipsInvalid(t *testing.T) {
	// Every 2nd packet invalid: 1000 packets -> 500 valid -> 5 windows of 100.
	ps := mkPackets(2, 1000, 50, 2)
	wins, err := Cut(ps, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 5 {
		t.Fatalf("windows = %d, want 5", len(wins))
	}
}

func TestWindowerPartialDiscarded(t *testing.T) {
	ps := mkPackets(3, 250, 20, 0)
	wins, err := Cut(ps, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 {
		t.Errorf("windows = %d, want 2 (50 trailing packets discarded)", len(wins))
	}
}

func TestWindowerShortStream(t *testing.T) {
	ps := mkPackets(4, 50, 20, 0)
	if _, err := Cut(ps, 100); err != ErrShortStream {
		t.Errorf("expected ErrShortStream, got %v", err)
	}
}

func TestWindowerBadNV(t *testing.T) {
	if _, err := NewWindower(0); err == nil {
		t.Error("NV=0: expected error")
	}
	if _, err := NewWindower(-5); err == nil {
		t.Error("NV<0: expected error")
	}
}

func TestWindowerPending(t *testing.T) {
	w, err := NewWindower(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if win := w.Push(Packet{Src: 1, Dst: 2, Valid: true}); win != nil {
			t.Fatal("window completed early")
		}
	}
	if w.Pending() != 7 {
		t.Errorf("Pending = %d", w.Pending())
	}
	w.Push(Packet{Src: 1, Dst: 2, Valid: false})
	if w.Pending() != 7 {
		t.Error("invalid packet advanced the window")
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
	wins, err := Cut(ps, 5000)
	if err != nil {
		t.Fatal(err)
	}
	w := wins[0]
	hists, err := AllQuantities(w)
	if err != nil {
		t.Fatal(err)
	}
	// Total of source packets histogram values weighted by degree == NV.
	var weighted int64
	for _, d := range hists[SourcePackets].Support() {
		weighted += int64(d) * hists[SourcePackets].Count(d)
	}
	if weighted != w.NV {
		t.Errorf("sum d*n(d) over source packets = %d, want NV=%d", weighted, w.NV)
	}
	// Number of link-packet observations == unique links.
	if hists[LinkPackets].Total() != w.Matrix.UniqueLinks() {
		t.Errorf("link packets total = %d, unique links = %d",
			hists[LinkPackets].Total(), w.Matrix.UniqueLinks())
	}
	// Source fan-out histogram total == unique sources.
	if hists[SourceFanOut].Total() != w.Matrix.UniqueSources() {
		t.Errorf("fan-out total = %d, unique sources = %d",
			hists[SourceFanOut].Total(), w.Matrix.UniqueSources())
	}
	// Destination fan-in histogram total == unique destinations.
	if hists[DestinationFanIn].Total() != w.Matrix.UniqueDestinations() {
		t.Errorf("fan-in total = %d, unique destinations = %d",
			hists[DestinationFanIn].Total(), w.Matrix.UniqueDestinations())
	}
	// Weighted destination packets == NV.
	weighted = 0
	for _, d := range hists[DestinationPackets].Support() {
		weighted += int64(d) * hists[DestinationPackets].Count(d)
	}
	if weighted != w.NV {
		t.Errorf("sum d*n(d) over destination packets = %d, want NV=%d", weighted, w.NV)
	}
}

func TestQuantityHistogramNilWindow(t *testing.T) {
	if _, err := QuantityHistogram(nil, SourcePackets); err == nil {
		t.Error("nil window: expected error")
	}
	ps := mkPackets(6, 100, 10, 0)
	wins, _ := Cut(ps, 100)
	if _, err := QuantityHistogram(wins[0], Quantity(42)); err == nil {
		t.Error("unknown quantity: expected error")
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

func BenchmarkWindowCut(b *testing.B) {
	ps := mkPackets(1, 1<<17, 1024, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cut(ps, 1<<14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllQuantities(b *testing.B) {
	ps := mkPackets(1, 1<<16, 1024, 0)
	wins, err := Cut(ps, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AllQuantities(wins[0]); err != nil {
			b.Fatal(err)
		}
	}
}
