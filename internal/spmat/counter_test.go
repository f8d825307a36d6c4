package spmat

import (
	"reflect"
	"testing"

	"hybridplaw/internal/xrand"
)

// TestNodeCounterMatchesMatrix pins the node counter's per-side packet
// totals against the Matrix reductions of the same packets, across
// Resets, for every side selection. The batches mix lengths that are
// and are not multiples of the prefetch stride (so both the strided loop
// and its tail run), strides made of one repeated link, and the extreme
// node ids 0 and 0xFFFFFFFF on both sides.
func TestNodeCounterMatchesMatrix(t *testing.T) {
	const top = 0xFFFFFFFF
	collect := func(forEach func(func(id uint32, n int64))) map[uint32]int64 {
		out := map[uint32]int64{}
		forEach(func(id uint32, n int64) {
			if _, dup := out[id]; dup {
				t.Fatalf("node %d visited twice", id)
			}
			out[id] = n
		})
		return out
	}
	batchLens := []int{1, 7, 8, 9, 13, 64, 255, 256, 300, 1000}
	for _, side := range []struct{ src, dst bool }{{true, false}, {false, true}, {true, true}, {false, false}} {
		r := xrand.New(23)
		c := NewNodeCounter(side.src, side.dst)
		for round := 0; round < 6; round++ {
			if round > 0 {
				c.Reset()
			}
			universe := 40 << (2 * round) // later rounds grow the tables
			var entries []Entry
			for _, n := range batchLens {
				keys := make([]uint64, n)
				for i := range keys {
					src, dst := uint32(r.Intn(universe)), uint32(r.Intn(universe))
					switch {
					case i%8 < 4 && (i/8)%3 == 0: // half a stride of one link
						src, dst = 5, 6
					case i%97 == 0:
						src, dst = 0, top
					case i%89 == 0:
						src, dst = top, 0
					case i%83 == 0:
						src, dst = top, top
					case i%79 == 0:
						src, dst = 0, 0
					}
					keys[i] = linkKey(src, dst)
					entries = append(entries, Entry{Src: src, Dst: dst, Count: 1})
				}
				if round%2 == 1 && n >= addBatchStride {
					keys = append(keys, keys[:addBatchStride]...) // a stride repeated whole
					for _, k := range keys[n:] {
						entries = append(entries, Entry{Src: uint32(k >> 32), Dst: uint32(k), Count: 1})
					}
				}
				c.AddPairs(keys)
			}
			m := FromEntries(entries)
			if c.Total() != m.ValidPackets() {
				t.Fatalf("side %+v round %d: Total = %d, want %d", side, round, c.Total(), m.ValidPackets())
			}
			if side.src {
				if got, want := collect(c.ForEachSourcePacket), m.SourcePackets(); !reflect.DeepEqual(got, want) {
					t.Fatalf("side %+v round %d: source packets differ from the matrix (%d vs %d nodes)",
						side, round, len(got), len(want))
				}
			}
			if side.dst {
				if got, want := collect(c.ForEachDestinationPacket), m.DestinationPackets(); !reflect.DeepEqual(got, want) {
					t.Fatalf("side %+v round %d: destination packets differ from the matrix (%d vs %d nodes)",
						side, round, len(got), len(want))
				}
			}
		}
		c.Reset()
		if c.Total() != 0 || c.src.len() != 0 || c.dst.len() != 0 {
			t.Fatalf("side %+v: Reset left total %d, %d sources, %d destinations",
				side, c.Total(), c.src.len(), c.dst.len())
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
	c := NewNodeCounter(true, false)
	c.AddPairs([]uint64{linkKey(1, 2)})
	mustPanic("destination side of a source counter", func() { c.ForEachDestinationPacket(func(uint32, int64) {}) })
	c = NewNodeCounter(false, true)
	c.AddPairs([]uint64{linkKey(1, 2)})
	mustPanic("source side of a destination counter", func() { c.ForEachSourcePacket(func(uint32, int64) {}) })
}
