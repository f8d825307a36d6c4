package spmat

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"hybridplaw/internal/xrand"
)

// builderRead is one of a Builder's reads, checked against the map
// reference of the same packets.
type builderRead struct {
	name  string
	check func(b *Builder, ref *mapBuilder) error
}

// nodeRead checks one per-node reduction, and that it visits nodes in
// ascending id order.
func nodeRead(name string, read func(*Builder) func(func(uint32, int64)), want func(*mapBuilder) map[uint32]int64) builderRead {
	return builderRead{name, func(b *Builder, ref *mapBuilder) error {
		got := map[uint32]int64{}
		var prev int64 = -1
		var order error
		read(b)(func(id uint32, n int64) {
			if int64(id) <= prev && order == nil {
				order = fmt.Errorf("node %d visited after %d", id, prev)
			}
			prev = int64(id)
			got[id] = n
		})
		if order != nil {
			return order
		}
		if w := want(ref); !reflect.DeepEqual(got, w) {
			return fmt.Errorf("%d nodes differ from the reference's %d", len(got), len(w))
		}
		return nil
	}}
}

var builderReads = []builderRead{
	{"aggregates", func(b *Builder, ref *mapBuilder) error {
		if got, want := b.Aggregates(), ref.aggregates(); got != want {
			return fmt.Errorf("%+v, want %+v", got, want)
		}
		return nil
	}},
	nodeRead("source packets", func(b *Builder) func(func(uint32, int64)) { return b.ForEachSourcePacket },
		func(r *mapBuilder) map[uint32]int64 { return r.srcPk }),
	nodeRead("source fan-out", func(b *Builder) func(func(uint32, int64)) { return b.ForEachSourceFanOut },
		func(r *mapBuilder) map[uint32]int64 { return r.fanOut }),
	nodeRead("destination fan-in", func(b *Builder) func(func(uint32, int64)) { return b.ForEachDestinationFanIn },
		func(r *mapBuilder) map[uint32]int64 { return r.fanIn }),
	nodeRead("destination packets", func(b *Builder) func(func(uint32, int64)) { return b.ForEachDestinationPacket },
		func(r *mapBuilder) map[uint32]int64 { return r.dstPk }),
	{"links", func(b *Builder, ref *mapBuilder) error {
		got := map[[2]uint32]int64{}
		b.ForEachLink(func(src, dst uint32, n int64) { got[[2]uint32{src, dst}] = n })
		if !reflect.DeepEqual(got, ref.counts) {
			return fmt.Errorf("%d links differ from the reference's %d", len(got), len(ref.counts))
		}
		return nil
	}},
}

// refEntries returns the reference's links as canonical entries.
func refEntries(ref *mapBuilder) []Entry {
	var es []Entry
	for k, n := range ref.counts {
		es = append(es, Entry{Src: k[0], Dst: k[1], Count: n})
	}
	slices.SortFunc(es, func(a, b Entry) int {
		if a.Src != b.Src {
			return int(int64(a.Src) - int64(b.Src))
		}
		return int(int64(a.Dst) - int64(b.Dst))
	})
	return es
}

// checkReadSets reduces keys once per subset of builderReads, on one
// reused builder of each major side, with the subset's reads in
// forward and then reverse order (so every read both opens a window's
// sort and follows another read), and checks every answer against the
// map reference; a source-major window's Partial and Build must equal
// the reference's canonical entries after any subset.
func checkReadSets(t *testing.T, keys []uint64) {
	t.Helper()
	ref := newMapBuilder()
	for _, k := range keys {
		ref.addN(uint32(k>>32), uint32(k), 1)
	}
	want := refEntries(ref)
	for _, major := range []struct {
		name string
		b    *Builder
	}{{"source-major", NewBuilder()}, {"destination-major", NewDestinationMajorBuilder()}} {
		b := major.b
		for set := 1; set < 1<<len(builderReads); set++ {
			var reads []builderRead
			for i, r := range builderReads {
				if set&(1<<i) != 0 {
					reads = append(reads, r)
				}
			}
			reversed := slices.Clone(reads)
			slices.Reverse(reversed)
			for _, order := range [][]builderRead{reads, reversed} {
				b.Reset()
				// Deposit in uneven batches, as the decoders do.
				for lo := 0; lo < len(keys); lo += 97 {
					b.AddPairs(keys[lo:min(lo+97, len(keys))])
				}
				for _, r := range order {
					if err := r.check(b, ref); err != nil {
						t.Fatalf("%s, read set %#x: %s: %v", major.name, set, r.name, err)
					}
				}
				if b.dstMajor {
					continue
				}
				if got := b.Partial(); !reflect.DeepEqual(got.entries, want) || got.Total() != ref.total {
					t.Fatalf("%s, read set %#x: Partial differs from the reference", major.name, set)
				}
				if got := b.Build(); !reflect.DeepEqual(got.Entries(), want) || got.ValidPackets() != ref.total {
					t.Fatalf("%s, read set %#x: Build differs from the reference", major.name, set)
				}
			}
		}
	}
}

// TestBuilderReadSets checks every read set, on both major sides,
// against the map reference for a heavy-tailed window.
func TestBuilderReadSets(t *testing.T) {
	checkReadSets(t, windowKeys(3, 4000, 12, false))
}

// TestBuilderWideIDs checks the same for a window whose ids are spread
// over all 32 bits of both sides, which the sort takes in more passes.
func TestBuilderWideIDs(t *testing.T) {
	keys := windowKeys(4, 4000, 12, true)
	var srcOr, dstOr uint32
	for _, k := range keys {
		srcOr |= uint32(k >> 32)
		dstOr |= uint32(k)
	}
	if srcOr != math.MaxUint32 || dstOr != math.MaxUint32 {
		t.Fatalf("ids do not span 32 bits: source OR %#x, destination OR %#x", srcOr, dstOr)
	}
	checkReadSets(t, keys)
}

// TestBuilderReadOrders pins the one-window contract across Resets:
// windows of different sizes and id ranges, each read in a different
// order, answer as a Matrix frozen from the same packets does, and a
// deposit after a read panics instead of mixing two windows.
func TestBuilderReadOrders(t *testing.T) {
	b := NewBuilder()
	for w := 0; w < 12; w++ {
		keys := windowKeys(uint64(w), 1+w*w*50, 2+2*w, w%3 == 2)
		b.Reset()
		b.AddPairs(keys)
		entries := make([]Entry, len(keys))
		for i, k := range keys {
			entries[i] = Entry{Src: uint32(k >> 32), Dst: uint32(k), Count: 1}
		}
		m := FromEntries(entries)
		src := func() {
			if got, want := collect(b.ForEachSourcePacket), m.SourcePackets(); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d: ForEachSourcePacket = %v, want %v", w, got, want)
			}
			if got, want := collect(b.ForEachSourceFanOut), m.SourceFanOut(); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d: ForEachSourceFanOut = %v, want %v", w, got, want)
			}
		}
		dst := func() {
			if got, want := collect(b.ForEachDestinationFanIn), m.DestinationFanIn(); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d: ForEachDestinationFanIn = %v, want %v", w, got, want)
			}
			if got, want := collect(b.ForEachDestinationPacket), m.DestinationPackets(); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d: ForEachDestinationPacket = %v, want %v", w, got, want)
			}
		}
		switch w % 4 {
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
			t.Fatalf("window %d: Aggregates = %+v, want %+v", w, got, want)
		}
		if got := b.Build(); !reflect.DeepEqual(got.Entries(), m.Entries()) {
			t.Fatalf("window %d: Build differs from FromEntries", w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AddPairs after a read did not panic")
		}
	}()
	b.AddPairs([]uint64{linkKey(1, 2)})
}

// TestDestinationMajorHasNoCanonicalOrder pins that a destination-major
// window refuses to freeze rather than freeze out of canonical order.
func TestDestinationMajorHasNoCanonicalOrder(t *testing.T) {
	b := NewDestinationMajorBuilder()
	b.AddPairs([]uint64{linkKey(1, 2), linkKey(2, 1)})
	defer func() {
		if recover() == nil {
			t.Error("Partial of a destination-major window did not panic")
		}
	}()
	b.Partial()
}

// TestBuilderReuseAllocatesNothing pins that a reused builder's second
// window of the same keys allocates nothing, for every read set on both
// major sides.
func TestBuilderReuseAllocatesNothing(t *testing.T) {
	keys := windowKeys(5, 20000, 14, false)
	var sum int64
	node := func(_ uint32, n int64) { sum += n }
	reads := []func(b *Builder){
		func(b *Builder) { sum += b.Aggregates().UniqueLinks },
		func(b *Builder) { b.ForEachSourcePacket(node) },
		func(b *Builder) { b.ForEachSourceFanOut(node) },
		func(b *Builder) { b.ForEachDestinationFanIn(node) },
		func(b *Builder) { b.ForEachDestinationPacket(node) },
		func(b *Builder) { b.ForEachLink(func(_, _ uint32, n int64) { sum += n }) },
	}
	for _, b := range []*Builder{NewBuilder(), NewDestinationMajorBuilder()} {
		for set := 1; set < 1<<len(reads); set++ {
			window := func() {
				b.Reset()
				for lo := 0; lo < len(keys); lo += 256 {
					b.AddPairs(keys[lo:min(lo+256, len(keys))])
				}
				for i, r := range reads {
					if set&(1<<i) != 0 {
						r(b)
					}
				}
			}
			window()
			if allocs := testing.AllocsPerRun(3, window); allocs != 0 {
				t.Errorf("destination-major %v, read set %#x: %.0f allocs per reused window", b.dstMajor, set, allocs)
			}
		}
	}
}

// TestRadixSortMatchesSort checks the radix sort against slices.Sort for
// key widths from 0 to 64 bits, and that it is stable: values carried
// with equal keys keep their input order.
func TestRadixSortMatchesSort(t *testing.T) {
	r := xrand.New(11)
	var rs radixSort
	for width := uint(0); width <= 64; width++ {
		n := 1 + r.Intn(3000)
		keys, vals := make([]uint64, n), make([]uint64, n)
		for i := range keys {
			// Few distinct high parts, so equal keys are common.
			keys[i] = r.Uint64() & (1<<width - 1) &^ (uint64(r.Intn(4)) << (width / 2))
			vals[i] = uint64(i)
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		got, gotVals := rs.sort(width, slices.Clone(keys), make([]uint64, n), slices.Clone(vals), make([]uint64, n))
		if !slices.Equal(got, want) {
			t.Fatalf("width %d: keys not sorted", width)
		}
		for i := 1; i < n; i++ {
			if keys[gotVals[i]] != got[i] || (got[i] == got[i-1] && gotVals[i] < gotVals[i-1]) {
				t.Fatalf("width %d: values not carried stably at %d", width, i)
			}
		}
	}
}
