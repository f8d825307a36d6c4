package spmat

// Window reduce benchmarks: one traffic window on a reused builder,
// deposit and read. Run with:
//
//	go test ./internal/spmat -run '^$' -bench BenchmarkWindow

import (
	"math"
	"testing"

	"hybridplaw/internal/xrand"
)

// windowKeys returns n packed keys of a heavy-tailed window: each
// endpoint id is log-uniform below 2^idBits, so a few hot nodes carry
// many packets and a long tail carries one each. With wide set, every
// id is then scrambled by an odd multiplier, a bijection of uint32 that
// spreads the same links over all 32 bits of both sides, and a few
// keys take the extreme ids 0 and 0xFFFFFFFF.
func windowKeys(seed uint64, n, idBits int, wide bool) []uint64 {
	r := xrand.New(seed)
	id := func() uint32 {
		v := uint32(math.Exp(r.Float64() * float64(idBits) * math.Ln2))
		if wide {
			v *= 0x9E3779B1
		}
		return v
	}
	keys := make([]uint64, n)
	for i := range keys {
		src, dst := id(), id()
		if wide {
			switch i % 1000 {
			case 1:
				src, dst = 0, math.MaxUint32
			case 2:
				src, dst = math.MaxUint32, 0
			case 3:
				src, dst = math.MaxUint32, math.MaxUint32
			}
		}
		keys[i] = linkKey(src, dst)
	}
	return keys
}

// windowSink keeps the benchmarked reads' results live.
var windowSink int64

// newWindowBuilder returns the builder a run reading the destination
// side alone uses when dstMajor is set, a source-major one otherwise.
func newWindowBuilder(dstMajor bool) *Builder {
	if dstMajor {
		return NewDestinationMajorBuilder()
	}
	return NewBuilder()
}

// BenchmarkWindow times one 300k-packet window's reduce on a reused
// accumulator: the deposit in 256-key batches, then one read set. "all"
// reads the aggregates and all five Fig. 1 reductions, as Fig. 1 does;
// "wide" is the same window with its ids spread over all 32 bits of
// both sides. "packets" counts the source side alone in a NodeCounter,
// as a packets-only Fig. 3 panel does: densely, or in sorted pairs when
// the ids are wide.
func BenchmarkWindow(b *testing.B) {
	const nv = 300_000
	narrow, wide := windowKeys(1, nv, 17, false), windowKeys(1, nv, 17, true)
	node := func(_ uint32, n int64) { windowSink += n }
	all := func(bl *Builder) {
		windowSink += bl.Aggregates().UniqueLinks
		bl.ForEachSourcePacket(node)
		bl.ForEachSourceFanOut(node)
		bl.ForEachDestinationFanIn(node)
		bl.ForEachDestinationPacket(node)
		bl.ForEachLink(func(_, _ uint32, n int64) { windowSink += n })
	}
	window := func(b *testing.B, keys []uint64, reset func(), add func([]uint64), read func()) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reset()
			for lo := 0; lo < len(keys); lo += 256 {
				add(keys[lo:min(lo+256, len(keys))])
			}
			read()
		}
		b.ReportMetric(float64(nv)*float64(b.N)/b.Elapsed().Seconds(), "packets/s")
	}
	for _, c := range []struct {
		name     string
		keys     []uint64
		dstMajor bool
		read     func(*Builder)
	}{
		{"links", narrow, false, func(bl *Builder) { bl.ForEachLink(func(_, _ uint32, n int64) { windowSink += n }) }},
		{"fanout", narrow, false, func(bl *Builder) { bl.ForEachSourceFanOut(node) }},
		{"fanin", narrow, true, func(bl *Builder) { bl.ForEachDestinationFanIn(node) }},
		{"all", narrow, false, all},
		{"all-wide", wide, false, all},
	} {
		b.Run(c.name, func(b *testing.B) {
			bl := newWindowBuilder(c.dstMajor)
			window(b, c.keys, bl.Reset, bl.AddPairs, func() { c.read(bl) })
		})
	}
	for _, c := range []struct {
		name string
		keys []uint64
	}{{"packets", narrow}, {"packets-wide", wide}} {
		b.Run(c.name, func(b *testing.B) {
			nc := NewNodeCounter(nv, true, false)
			window(b, c.keys, nc.Reset, nc.AddPairs, func() { nc.ForEachSourcePacket(node) })
		})
	}
}
