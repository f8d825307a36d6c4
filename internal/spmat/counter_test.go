package spmat

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hybridplaw/internal/xrand"
)

// counterWindow is one window of TestNodeCounterMatchesMatrix: its
// batches of keys and whether the counted sides end it wide.
type counterWindow struct {
	name    string
	batches [][]uint64
	wide    bool
}

// counterBatches returns batches of the given lengths whose ids, on
// both sides, are drawn below universe(i) in batch i; at, when not nil,
// may replace the link of packet j of batch i.
func counterBatches(r *xrand.RNG, lens []int, universe func(i int) int, at func(i, j int) (src, dst uint32, ok bool)) [][]uint64 {
	out := make([][]uint64, len(lens))
	for i, n := range lens {
		out[i] = make([]uint64, n)
		for j := range out[i] {
			src, dst := uint32(r.Intn(universe(i))), uint32(r.Intn(universe(i)))
			if at != nil {
				if s, d, ok := at(i, j); ok {
					src, dst = s, d
				}
			}
			out[i][j] = linkKey(src, dst)
		}
	}
	return out
}

// ascending gathers a NodeCounter side into a map, failing unless its
// ids come in strictly ascending order.
func ascending(t *testing.T, name string, forEach func(func(id uint32, n int64))) map[uint32]int64 {
	t.Helper()
	out := map[uint32]int64{}
	var last int64 = -1
	forEach(func(id uint32, n int64) {
		if int64(id) <= last {
			t.Fatalf("%s: id %d visited after %d", name, id, last)
		}
		last = int64(id)
		out[id] = n
	})
	return out
}

// TestNodeCounterMatchesMatrix pins the node counter's per-side packet
// totals, and their ascending visit order, against the Matrix
// reductions of the same packets after every batch, so reads and adds
// interleave, for every side selection. One counter is reused across
// windows that count densely, pass the dense bound from their first
// batch, pass it mid-window (so dense counts are carried into the
// sort), sit exactly at the bound and one id past it; the last window
// is narrow again after wide ones.
func TestNodeCounterMatchesMatrix(t *testing.T) {
	const nv = 1 << 12 // dense while a side's ids are below 2·nv = 1<<13
	const top = math.MaxUint32
	lens := []int{1, 7, 256, 300, 1000, 255, 2000}
	growing := func(i int) int { return min(1<<(4+2*i), 1<<13) } // narrow, widening
	extremes := func(i, j int) (uint32, uint32, bool) {
		switch j % 97 {
		case 0:
			return top, top, true
		case 1:
			return 0, top, true
		case 2:
			return top, 0, true
		case 3:
			return 0, 0, true
		}
		return 0, 0, false
	}
	r := xrand.New(23)
	windows := []counterWindow{
		{"narrow", counterBatches(r, lens, growing, nil), false},
		{"wide from the first batch", counterBatches(r, lens, func(int) int { return 1 << 20 }, extremes), true},
		{"crossing mid-window", counterBatches(r, lens, func(int) int { return 3000 }, func(i, j int) (uint32, uint32, bool) {
			if i < 4 {
				return 0, 0, false // four dense batches, then the same ids among wide ones
			}
			return extremes(i, j)
		}), true},
		{"at the bound", counterBatches(r, lens, growing, func(i, j int) (uint32, uint32, bool) {
			return 2*nv - 1, 2*nv - 1, i == 3 && j == 0
		}), false},
		{"one past the bound", counterBatches(r, lens, growing, func(i, j int) (uint32, uint32, bool) {
			return 2 * nv, 2 * nv, i == 3 && j == 0
		}), true},
		{"narrow after wide", counterBatches(r, lens, growing, nil), false},
	}
	for _, side := range []struct{ src, dst bool }{{true, false}, {false, true}, {true, true}, {false, false}} {
		c := NewNodeCounter(nv, side.src, side.dst)
		for _, w := range windows {
			c.Reset()
			var entries []Entry
			for b, batch := range w.batches {
				c.AddPairs(batch)
				for _, k := range batch {
					entries = append(entries, Entry{Src: uint32(k >> 32), Dst: uint32(k), Count: 1})
				}
				name := fmt.Sprintf("%s, side %+v, batch %d", w.name, side, b)
				m := FromEntries(entries)
				if c.Total() != m.ValidPackets() {
					t.Fatalf("%s: Total = %d, want %d", name, c.Total(), m.ValidPackets())
				}
				for _, s := range []struct {
					on      bool
					name    string
					forEach func(func(uint32, int64))
					want    map[uint32]int64
				}{
					{side.src, name + ", source packets", c.ForEachSourcePacket, m.SourcePackets()},
					{side.dst, name + ", destination packets", c.ForEachDestinationPacket, m.DestinationPackets()},
				} {
					for read := 0; s.on && read < 2; read++ { // a second read answers the same
						if got := ascending(t, s.name, s.forEach); !reflect.DeepEqual(got, s.want) {
							t.Fatalf("%s, read %d: %d nodes differ from the matrix's %d", s.name, read, len(got), len(s.want))
						}
					}
				}
			}
			if (side.src && c.src.wide != w.wide) || (side.dst && c.dst.wide != w.wide) {
				t.Errorf("%s, side %+v: sides wide %v, %v, want %v", w.name, side, c.src.wide, c.dst.wide, w.wide)
			}
		}
		c.Reset()
		if c.Total() != 0 || len(c.src.dense)+len(c.dst.dense)+len(c.src.ids)+len(c.dst.ids) != 0 {
			t.Fatalf("side %+v: Reset left total %d and counts", side, c.Total())
		}
	}
}

// TestNodeCounterReuseAllocatesNothing pins that a reused counter's
// second window of the same keys allocates nothing, for every side
// selection, counted densely and in pairs.
func TestNodeCounterReuseAllocatesNothing(t *testing.T) {
	const nv = 20000
	var sum int64
	node := func(_ uint32, n int64) { sum += n }
	for _, wide := range []bool{false, true} {
		keys := windowKeys(5, nv, 14, wide)
		for _, side := range []struct{ src, dst bool }{{true, false}, {false, true}, {true, true}} {
			c := NewNodeCounter(nv, side.src, side.dst)
			window := func() {
				c.Reset()
				for lo := 0; lo < len(keys); lo += 256 {
					c.AddPairs(keys[lo:min(lo+256, len(keys))])
				}
				if side.src {
					c.ForEachSourcePacket(node)
				}
				if side.dst {
					c.ForEachDestinationPacket(node)
				}
			}
			window()
			if c.src.wide != (wide && side.src) || c.dst.wide != (wide && side.dst) {
				t.Fatalf("wide %v, side %+v: sides wide %v, %v", wide, side, c.src.wide, c.dst.wide)
			}
			if allocs := testing.AllocsPerRun(3, window); allocs != 0 {
				t.Errorf("wide %v, side %+v: %.0f allocs per reused window", wide, side, allocs)
			}
		}
	}
}

// TestNodeCounterRejectsUncountedSide pins that a counter never answers
// for a side it was not asked to count: an empty answer would pass for
// a window without packets.
func TestNodeCounterRejectsUncountedSide(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	c := NewNodeCounter(1, true, false)
	c.AddPairs([]uint64{linkKey(1, 2)})
	mustPanic("destination side of a source counter", func() { c.ForEachDestinationPacket(func(uint32, int64) {}) })
	c = NewNodeCounter(1, false, true)
	c.AddPairs([]uint64{linkKey(1, 2)})
	mustPanic("source side of a destination counter", func() { c.ForEachSourcePacket(func(uint32, int64) {}) })
}
