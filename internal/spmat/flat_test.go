package spmat

import (
	"reflect"
	"testing"

	"hybridplaw/internal/xrand"
)

// mapBuilder is the pre-refactor map-based reduction, kept verbatim as
// the behavioral reference: the flat-table Builder must reproduce every
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

// get returns key's count (0 when absent).
func (t *flatTable[K]) get(key K) int64 {
	if t.n == 0 {
		return 0
	}
	mask := uint64(len(t.slots) - 1)
	i := mix64(uint64(key)) & mask
	for {
		s := &t.slots[i]
		switch {
		case s.val == 0:
			return 0
		case s.key == key:
			return s.val
		}
		i = (i + 1) & mask
	}
}

func TestFlatTableBasics(t *testing.T) {
	var ft flatTable[uint32]
	if ft.get(0) != 0 || ft.len() != 0 {
		t.Fatal("zero table not empty")
	}
	// Key 0 is a valid key (node id 0): it must store and read back.
	if got := ft.add(0, 5); got != 5 {
		t.Fatalf("add(0,5) = %d", got)
	}
	if got := ft.add(0, 2); got != 7 {
		t.Fatalf("add(0,2) = %d, want 7 (accumulate)", got)
	}
	if ft.get(0) != 7 || ft.len() != 1 {
		t.Fatalf("get(0) = %d len=%d", ft.get(0), ft.len())
	}
	ft.reset()
	if ft.get(0) != 0 || ft.len() != 0 {
		t.Fatal("reset did not empty the table")
	}
	if got := ft.add(0, 3); got != 3 {
		t.Fatalf("add after reset = %d, want 3 (stale key must not resurrect)", got)
	}
}

func TestFlatTableVsMap(t *testing.T) {
	r := xrand.New(42)
	var ft flatTable[uint64]
	ref := make(map[uint64]int64)
	for i := 0; i < 200000; i++ {
		k := uint64(r.Intn(5000))<<32 | uint64(r.Intn(5000))
		n := int64(r.Intn(4) + 1)
		ft.add(k, n)
		ref[k] += n
	}
	if ft.len() != len(ref) {
		t.Fatalf("len = %d, want %d", ft.len(), len(ref))
	}
	got := make(map[uint64]int64, ft.len())
	ft.forEach(func(k uint64, v int64) { got[k] = v })
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("flat table contents diverge from map reference")
	}
	for k, v := range ref {
		if ft.get(k) != v {
			t.Fatalf("get(%d) = %d, want %d", k, ft.get(k), v)
		}
	}
}

func TestFlatTableGrowthAcrossResets(t *testing.T) {
	var ft flatTable[uint32]
	for round := 0; round < 3; round++ {
		for i := uint32(0); i < 10000; i++ {
			ft.add(i, int64(i)+1)
		}
		if ft.len() != 10000 {
			t.Fatalf("round %d: len = %d", round, ft.len())
		}
		if ft.get(9999) != 10000 {
			t.Fatalf("round %d: get(9999) = %d", round, ft.get(9999))
		}
		ft.reset()
	}
}

// TestBuilderVsMapReference is the map-equivalence pin of the
// flat-table refactor: every reduction the builder maintains must match
// the pre-refactor map implementation on random traffic.
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

func BenchmarkBuilderAddPacket(b *testing.B) {
	r := xrand.New(1)
	srcs := make([]uint32, 1<<16)
	dsts := make([]uint32, 1<<16)
	for i := range srcs {
		srcs[i] = uint32(r.Intn(1 << 13))
		dsts[i] = uint32(r.Intn(1 << 13))
	}
	bld := NewBuilder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addPacket(bld, srcs[i&(1<<16-1)], dsts[i&(1<<16-1)])
		if i&(1<<20-1) == 1<<20-1 {
			bld.Reset()
		}
	}
}

func BenchmarkMapBuilderAddPacket(b *testing.B) {
	r := xrand.New(1)
	srcs := make([]uint32, 1<<16)
	dsts := make([]uint32, 1<<16)
	for i := range srcs {
		srcs[i] = uint32(r.Intn(1 << 13))
		dsts[i] = uint32(r.Intn(1 << 13))
	}
	bld := newMapBuilder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.addN(srcs[i&(1<<16-1)], dsts[i&(1<<16-1)], 1)
		if i&(1<<20-1) == 1<<20-1 {
			*bld = *newMapBuilder()
		}
	}
}
