package spmat

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"hybridplaw/internal/xrand"
)

// refAggregates computes Table I aggregates from a dense map, the
// straightforward summation-notation reference implementation.
func refAggregates(entries []Entry) Aggregates {
	type key struct{ s, d uint32 }
	dense := map[key]int64{}
	for _, e := range entries {
		dense[key{e.Src, e.Dst}] += e.Count
	}
	var a Aggregates
	srcs := map[uint32]struct{}{}
	dsts := map[uint32]struct{}{}
	for k, v := range dense {
		if v == 0 {
			continue
		}
		a.ValidPackets += v
		a.UniqueLinks++
		srcs[k.s] = struct{}{}
		dsts[k.d] = struct{}{}
	}
	a.UniqueSources = int64(len(srcs))
	a.UniqueDestinations = int64(len(dsts))
	return a
}

func randomEntries(seed uint64, n, universe int) []Entry {
	r := xrand.New(seed)
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{
			Src:   uint32(r.Intn(universe)),
			Dst:   uint32(r.Intn(universe)),
			Count: int64(r.Intn(5) + 1),
		}
	}
	return es
}

func TestTableIMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		es := randomEntries(seed, 5000, 300)
		m := FromEntries(es)
		got := m.TableI()
		want := refAggregates(es)
		if got != want {
			t.Errorf("seed %d: TableI = %+v, reference = %+v", seed, got, want)
		}
	}
}

func TestBuilderEquivalentToFromEntries(t *testing.T) {
	es := randomEntries(7, 2000, 100)
	b := NewBuilder()
	for _, e := range es {
		b.addN(e.Src, e.Dst, e.Count)
	}
	got := b.Build().TableI()
	want := FromEntries(es).TableI()
	if got != want {
		t.Errorf("builder %+v != fromEntries %+v", got, want)
	}
}

// collect gathers a ForEach reduction into a map.
func collect(forEach func(func(id uint32, n int64))) map[uint32]int64 {
	out := map[uint32]int64{}
	forEach(func(id uint32, n int64) { out[id] = n })
	return out
}

// Matrix's five per-node reductions below are the summation-notation
// reference that the builder's ForEach reductions and NodeCounter are
// checked against; the product reduces windows through the builder.

// SourcePackets returns, per source, the total packets sent (row sums
// At·1): the "source packets" quantity of Fig. 1.
func (m *Matrix) SourcePackets() map[uint32]int64 {
	out := make(map[uint32]int64)
	for _, e := range m.entries {
		out[e.Src] += e.Count
	}
	return out
}

// SourceFanOut returns, per source, the number of unique destinations
// (row zero-norm sums |At|₀·1): the "source fan-out" quantity of Fig. 1.
func (m *Matrix) SourceFanOut() map[uint32]int64 {
	out := make(map[uint32]int64)
	for _, e := range m.entries {
		out[e.Src]++ // entries are unique per (src,dst)
	}
	return out
}

// LinkPackets returns the packet count per unique link (the nonzero values
// of At): the "link packets" quantity of Fig. 1.
func (m *Matrix) LinkPackets() []int64 {
	out := make([]int64, len(m.entries))
	for i, e := range m.entries {
		out[i] = e.Count
	}
	return out
}

// DestinationFanIn returns, per destination, the number of unique sources
// (column zero-norm sums 1ᵀ|At|₀): the "destination fan-in" of Fig. 1.
func (m *Matrix) DestinationFanIn() map[uint32]int64 {
	out := make(map[uint32]int64)
	for _, e := range m.entries {
		out[e.Dst]++
	}
	return out
}

// DestinationPackets returns, per destination, the total packets received
// (column sums 1ᵀAt): the "destination packets" quantity of Fig. 1.
func (m *Matrix) DestinationPackets() map[uint32]int64 {
	out := make(map[uint32]int64)
	for _, e := range m.entries {
		out[e.Dst] += e.Count
	}
	return out
}

// linkKey packs a (src, dst) pair into the key AddPairs takes.
func linkKey(src, dst uint32) uint64 { return uint64(src)<<32 | uint64(dst) }

// addN deposits n packets of one link, one key each: the unit a
// Builder accumulates is a packet.
func (b *Builder) addN(src, dst uint32, n int64) {
	for ; n > 0; n-- {
		b.AddPairs([]uint64{linkKey(src, dst)})
	}
}

// addPacket accumulates a single packet from src to dst.
func addPacket(b *Builder, src, dst uint32) { b.addN(src, dst, 1) }

func TestBuilderAddPacket(t *testing.T) {
	b := NewBuilder()
	addPacket(b, 1, 2)
	addPacket(b, 1, 2)
	addPacket(b, 2, 1)
	m := b.Build()
	if m.ValidPackets() != 3 || m.UniqueLinks() != 2 {
		t.Errorf("aggregates: %+v", m.TableI())
	}
	if len(b.links) != 2 {
		t.Errorf("links = %d", len(b.links))
	}
}

func TestDuplicateCombination(t *testing.T) {
	m := FromEntries([]Entry{{1, 2, 3}, {1, 2, 4}, {0, 0, 1}})
	if m.UniqueLinks() != 2 {
		t.Fatalf("UniqueLinks = %d, want 2", m.UniqueLinks())
	}
	if m.ValidPackets() != 8 {
		t.Errorf("NV = %d, want 8", m.ValidPackets())
	}
	es := m.Entries()
	if es[0].Src != 0 || es[1].Count != 7 {
		t.Errorf("entries not sorted/combined: %+v", es)
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := FromEntries(nil)
	agg := m.TableI()
	if agg != (Aggregates{}) {
		t.Errorf("empty matrix aggregates: %+v", agg)
	}
	if m.Transpose().UniqueLinks() != 0 {
		t.Error("empty transpose should be empty")
	}
}

func TestFigure1QuantitiesSmall(t *testing.T) {
	// Hand-checked example:
	//   1->2: 3 packets, 1->3: 1, 2->3: 2.
	m := FromEntries([]Entry{{1, 2, 3}, {1, 3, 1}, {2, 3, 2}})
	wantSrcPk := map[uint32]int64{1: 4, 2: 2}
	wantFanOut := map[uint32]int64{1: 2, 2: 1}
	wantFanIn := map[uint32]int64{2: 1, 3: 2}
	wantDstPk := map[uint32]int64{2: 3, 3: 3}
	if got := m.SourcePackets(); !reflect.DeepEqual(got, wantSrcPk) {
		t.Errorf("SourcePackets = %v", got)
	}
	if got := m.SourceFanOut(); !reflect.DeepEqual(got, wantFanOut) {
		t.Errorf("SourceFanOut = %v", got)
	}
	if got := m.DestinationFanIn(); !reflect.DeepEqual(got, wantFanIn) {
		t.Errorf("DestinationFanIn = %v", got)
	}
	if got := m.DestinationPackets(); !reflect.DeepEqual(got, wantDstPk) {
		t.Errorf("DestinationPackets = %v", got)
	}
	lp := m.LinkPackets()
	sort.Slice(lp, func(i, j int) bool { return lp[i] < lp[j] })
	if !reflect.DeepEqual(lp, []int64{1, 2, 3}) {
		t.Errorf("LinkPackets = %v", lp)
	}
}

func TestQuantityIdentities(t *testing.T) {
	// Σ source packets = Σ destination packets = NV;
	// Σ fan-out = Σ fan-in = unique links.
	prop := func(seed uint64) bool {
		es := randomEntries(seed, 1000, 64)
		m := FromEntries(es)
		var sp, dp, fo, fi int64
		for _, v := range m.SourcePackets() {
			sp += v
		}
		for _, v := range m.DestinationPackets() {
			dp += v
		}
		for _, v := range m.SourceFanOut() {
			fo += v
		}
		for _, v := range m.DestinationFanIn() {
			fi += v
		}
		return sp == m.ValidPackets() && dp == m.ValidPackets() &&
			fo == m.UniqueLinks() && fi == m.UniqueLinks()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransposeIdentities(t *testing.T) {
	prop := func(seed uint64) bool {
		es := randomEntries(seed, 800, 50)
		m := FromEntries(es)
		mt := m.Transpose()
		// Aggregates swap sources and destinations; NV and links invariant.
		a, at := m.TableI(), mt.TableI()
		if a.ValidPackets != at.ValidPackets || a.UniqueLinks != at.UniqueLinks {
			return false
		}
		if a.UniqueSources != at.UniqueDestinations || a.UniqueDestinations != at.UniqueSources {
			return false
		}
		// Double transpose is identity.
		return reflect.DeepEqual(mt.Transpose().Entries(), m.Entries())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	es := randomEntries(99, 20000, 500)
	serial := FromEntries(es)
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		par := ParallelBuild(es, workers)
		if !reflect.DeepEqual(par.Entries(), serial.Entries()) {
			t.Errorf("workers=%d: parallel result differs from serial", workers)
		}
	}
}

func TestParallelBuildSmallInputs(t *testing.T) {
	if m := ParallelBuild(nil, 4); m.UniqueLinks() != 0 {
		t.Error("empty input should build empty matrix")
	}
	one := []Entry{{1, 2, 3}}
	if m := ParallelBuild(one, 8); m.ValidPackets() != 3 {
		t.Error("single entry mishandled")
	}
}

func BenchmarkSerialBuild(b *testing.B) {
	es := randomEntries(1, 1<<16, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromEntries(es)
	}
}

func BenchmarkParallelBuild(b *testing.B) {
	es := randomEntries(1, 1<<16, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelBuild(es, 0)
	}
}

func BenchmarkTableIAggregates(b *testing.B) {
	m := FromEntries(randomEntries(1, 1<<16, 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.TableI()
	}
}

// mapBuilder is the pre-refactor map-based reduction, kept verbatim as
// the behavioral reference: the sorted-window Builder must reproduce every
// reduction it maintains, on any input.
type mapBuilder struct {
	counts map[[2]uint32]int64
	srcPk  map[uint32]int64
	dstPk  map[uint32]int64
	fanOut map[uint32]int64
	fanIn  map[uint32]int64
	total  int64
}

func newMapBuilder() *mapBuilder {
	return &mapBuilder{
		counts: make(map[[2]uint32]int64),
		srcPk:  make(map[uint32]int64),
		dstPk:  make(map[uint32]int64),
		fanOut: make(map[uint32]int64),
		fanIn:  make(map[uint32]int64),
	}
}

func (b *mapBuilder) addN(src, dst uint32, n int64) {
	k := [2]uint32{src, dst}
	c := b.counts[k]
	b.counts[k] = c + n
	if c == 0 {
		b.fanOut[src]++
		b.fanIn[dst]++
	}
	b.srcPk[src] += n
	b.dstPk[dst] += n
	b.total += n
}

func (b *mapBuilder) aggregates() Aggregates {
	return Aggregates{
		ValidPackets:       b.total,
		UniqueLinks:        int64(len(b.counts)),
		UniqueSources:      int64(len(b.srcPk)),
		UniqueDestinations: int64(len(b.dstPk)),
	}
}

// TestBuilderVsMapReference is the map-equivalence pin of the
// builder: every reduction it answers must match the map
// implementation on random traffic.
func TestBuilderVsMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := xrand.New(seed)
		b := NewBuilder()
		ref := newMapBuilder()
		for i := 0; i < 50000; i++ {
			src, dst := uint32(r.Intn(700)), uint32(r.Intn(700))
			n := int64(r.Intn(3) + 1)
			b.addN(src, dst, n)
			ref.addN(src, dst, n)
		}
		if got, want := b.Aggregates(), ref.aggregates(); got != want {
			t.Fatalf("seed %d: aggregates %+v != reference %+v", seed, got, want)
		}
		if got := collect(b.ForEachSourcePacket); !reflect.DeepEqual(got, ref.srcPk) {
			t.Fatalf("seed %d: SourcePackets diverge", seed)
		}
		if got := collect(b.ForEachSourceFanOut); !reflect.DeepEqual(got, ref.fanOut) {
			t.Fatalf("seed %d: SourceFanOut diverge", seed)
		}
		if got := collect(b.ForEachDestinationFanIn); !reflect.DeepEqual(got, ref.fanIn) {
			t.Fatalf("seed %d: DestinationFanIn diverge", seed)
		}
		if got := collect(b.ForEachDestinationPacket); !reflect.DeepEqual(got, ref.dstPk) {
			t.Fatalf("seed %d: DestinationPackets diverge", seed)
		}
		links := make(map[[2]uint32]int64)
		b.ForEachLink(func(src, dst uint32, n int64) { links[[2]uint32{src, dst}] = n })
		if !reflect.DeepEqual(links, ref.counts) {
			t.Fatalf("seed %d: link counts diverge", seed)
		}
	}
}
