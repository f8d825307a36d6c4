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
		if err := b.Add(e.Src, e.Dst, e.Count); err != nil {
			t.Fatal(err)
		}
	}
	got := b.Build().TableI()
	want := FromEntries(es).TableI()
	if got != want {
		t.Errorf("builder %+v != fromEntries %+v", got, want)
	}
}

func TestBuilderAddPacket(t *testing.T) {
	b := NewBuilder()
	b.AddPacket(1, 2)
	b.AddPacket(1, 2)
	b.AddPacket(2, 1)
	m := b.Build()
	if m.ValidPackets() != 3 || m.UniqueLinks() != 2 {
		t.Errorf("aggregates: %+v", m.TableI())
	}
	if b.NNZ() != 2 {
		t.Errorf("NNZ = %d", b.NNZ())
	}
}

func TestBuilderAddRejectsNonPositive(t *testing.T) {
	b := NewBuilder()
	if err := b.Add(1, 2, 0); err == nil {
		t.Error("Add(count=0): expected error")
	}
	if err := b.Add(1, 2, -5); err == nil {
		t.Error("Add(count<0): expected error")
	}
}

func TestMergeBuilders(t *testing.T) {
	a, b := NewBuilder(), NewBuilder()
	a.AddPacket(1, 2)
	b.AddPacket(1, 2)
	b.AddPacket(3, 4)
	a.Merge(b)
	m := a.Build()
	if m.ValidPackets() != 3 || m.UniqueLinks() != 2 {
		t.Errorf("merged: %+v", m.TableI())
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

// TestBuilderSplitDerive pins the one-side-at-a-time derivation: the
// source side and the destination side each carry their own derived
// flag, and every accumulation (AddPairs, Add, Merge, Reset) must clear
// both. Reads alternate between one side only and both sides in either
// order, so a flag left set on one side after an accumulation shows up
// as a stale reduction against a Matrix frozen from the same counts.
func TestBuilderSplitDerive(t *testing.T) {
	const universe = 60
	r := xrand.New(17)
	b := NewBuilder()
	var entries []Entry // every count b has accumulated since its last Reset
	collect := func(forEach func(func(id uint32, n int64))) map[uint32]int64 {
		out := map[uint32]int64{}
		forEach(func(id uint32, n int64) { out[id] = n })
		return out
	}
	for step := 0; step < 48; step++ {
		switch step % 4 {
		case 0:
			keys := make([]uint64, 1+r.Intn(300))
			for i := range keys {
				src, dst := uint32(r.Intn(universe)), uint32(r.Intn(universe))
				keys[i] = uint64(src)<<32 | uint64(dst)
				entries = append(entries, Entry{Src: src, Dst: dst, Count: 1})
			}
			b.AddPairs(keys)
		case 1:
			e := Entry{Src: uint32(r.Intn(universe)), Dst: uint32(r.Intn(universe)), Count: int64(1 + r.Intn(9))}
			if err := b.Add(e.Src, e.Dst, e.Count); err != nil {
				t.Fatal(err)
			}
			entries = append(entries, e)
		case 2:
			other := NewBuilder()
			for _, e := range randomEntries(uint64(step), 1+r.Intn(200), universe) {
				if err := other.Add(e.Src, e.Dst, e.Count); err != nil {
					t.Fatal(err)
				}
				entries = append(entries, e)
			}
			b.Merge(other)
		case 3:
			if step%8 == 7 {
				b.Reset()
				entries = nil
			}
		}
		m := FromEntries(entries)
		src := func() {
			if got, want := collect(b.ForEachSourcePacket), m.SourcePackets(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: ForEachSourcePacket = %v, want %v", step, got, want)
			}
			if got, want := collect(b.ForEachSourceFanOut), m.SourceFanOut(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: ForEachSourceFanOut = %v, want %v", step, got, want)
			}
			if got, want := b.SourcePackets(), m.SourcePackets(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: SourcePackets = %v, want %v", step, got, want)
			}
			if got, want := b.SourceFanOut(), m.SourceFanOut(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: SourceFanOut = %v, want %v", step, got, want)
			}
		}
		dst := func() {
			if got, want := collect(b.ForEachDestinationFanIn), m.DestinationFanIn(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: ForEachDestinationFanIn = %v, want %v", step, got, want)
			}
			if got, want := collect(b.ForEachDestinationPacket), m.DestinationPackets(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: ForEachDestinationPacket = %v, want %v", step, got, want)
			}
			if got, want := b.DestinationFanIn(), m.DestinationFanIn(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: DestinationFanIn = %v, want %v", step, got, want)
			}
			if got, want := b.DestinationPackets(), m.DestinationPackets(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: DestinationPackets = %v, want %v", step, got, want)
			}
		}
		// Steps cycle through source only, destination only, source
		// then destination, destination then source, and the aggregates
		// alone; against the 4-step accumulation cycle, every read
		// pattern follows every kind of accumulation.
		switch step % 5 {
		case 0:
			src()
		case 1:
			dst()
		case 2:
			src()
			dst()
		case 3:
			dst()
			src()
		}
		if got, want := b.Aggregates(), m.TableI(); got != want {
			t.Fatalf("step %d: Aggregates = %+v, want %+v", step, got, want)
		}
	}
}
