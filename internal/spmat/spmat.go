// Package spmat implements the sparse traffic matrices of Section II.
//
// At a given time t, NV consecutive valid packets are aggregated into a
// sparse matrix At where At(i,j) is the number of valid packets between
// source i and destination j. All the network quantities of Fig. 1 and all
// the aggregate properties of Table I are computed from At. The package
// provides both the summation-notation and matrix-notation forms of every
// Table I aggregate so tests can verify their equality, mirroring the
// paper's presentation:
//
//	Valid packets NV       Σi Σj At(i,j)        1ᵀAt1
//	Unique links           Σi Σj |At(i,j)|₀     1ᵀ|At|₀1
//	Unique sources         Σi |Σj At(i,j)|₀     1ᵀ|At·1|₀
//	Unique destinations    Σj |Σi At(i,j)|₀     |1ᵀAt|₀1
//
// where |·|₀ is the zero-norm that sets each nonzero value of its argument
// to 1.
package spmat

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// Entry is a single (source, destination, count) triple.
type Entry struct {
	Src, Dst uint32
	Count    int64
}

// Builder accumulates one traffic window's packets and answers every
// Fig. 1 reduction and Table I aggregate of it from one sorted array.
//
// AddPairs only appends packed (src<<32 | dst) keys to one slice that
// Reset keeps for the next window. The first read closes the window:
// the keys are compacted to the bits the window's ids need,
// radix-sorted once and collapsed into runs. A run of equal keys is a
// unique link and its packet count; a run of one major id is a node
// of the major side, whose packets are its links' counts summed and
// whose fan is its number of links. The other side takes one more sort
// over the unique links only. The source is major (NewBuilder), so the
// links come out in the canonical (Src, Dst) order Partial and Build
// freeze, unless the window is read on its destination side alone
// (NewDestinationMajorBuilder).
//
// Every reduction is an integer count over sorted runs, so no answer
// depends on packet order; ForEach* visit ids in ascending order. A
// window closes once: AddPairs after a read panics until Reset. A
// reused builder's later windows of the same shape allocate nothing.
// Builder is not safe for concurrent use: a read mutates it. A window
// read only for per-node packet totals keeps no keys: a NodeCounter
// counts each packet at its node's id instead.
type Builder struct {
	keys     []uint64 // the window's packed keys in arrival order until close
	tmp      []uint64 // radix scratch for keys
	side     []uint64 // the minor-side sort: ids, counts and their scratch
	sorter   radixSort
	or       uint64 // OR of every deposited key: bounds each side's id width
	total    int64
	dstMajor bool

	// Once closed: the unique links, keyed major<<minorBits | minor and
	// ascending, with their packet counts; once minorSorted, the links'
	// minor ids ascending with the same counts.
	closed                bool
	minorBits             uint
	links, counts         []uint64
	minorSorted           bool
	minorIDs, minorCounts []uint64
}

// NewBuilder returns an empty source-major builder.
func NewBuilder() *Builder {
	return &Builder{}
}

// NewDestinationMajorBuilder returns an empty destination-major
// builder: its destination side reads off the window's one sort, and
// its source side takes the extra sort. It has no canonical (Src, Dst)
// order, so Partial and Build panic.
func NewDestinationMajorBuilder() *Builder {
	return &Builder{dstMajor: true}
}

// NewBuilderFromPartial returns a closed source-major builder holding
// p's links: a merged partial re-derives its reductions from its
// canonical entries, without re-accumulating them.
func NewBuilderFromPartial(p WindowPartial) *Builder {
	n := len(p.entries)
	buf := make([]uint64, 2*n)
	b := &Builder{closed: true, total: p.total, links: buf[:n], counts: buf[n:]}
	_, b.minorBits = packEntries(p.entries, b.links, b.counts)
	return b
}

// AddPairs accumulates packed (src<<32 | dst) link keys, one packet
// each: the fused decode→reduce entry point. It panics once the window
// has been read (see Reset).
func (b *Builder) AddPairs(keys []uint64) {
	if b.closed {
		panic("spmat: AddPairs on a window that has been read; Reset it first")
	}
	var or uint64
	for _, k := range keys {
		or |= k
	}
	b.or |= or
	if n := len(b.keys) + len(keys); n > cap(b.keys) {
		b.keys = append(make([]uint64, 0, max(n, 2*cap(b.keys))), b.keys...)
	}
	b.keys = append(b.keys, keys...)
	b.total += int64(len(keys))
}

// close sorts the window's keys and collapses them into unique links,
// once per window: the links keep the sorted buffer's prefix and their
// counts the prefix of the other.
func (b *Builder) close() {
	if b.closed {
		return
	}
	b.closed = true
	srcBits, dstBits := uint(bits.Len32(uint32(b.or>>32))), uint(bits.Len32(uint32(b.or)))
	major, minor := uint(32), uint(0) // each side's shift in a packed key
	b.minorBits = dstBits
	if b.dstMajor {
		major, minor, b.minorBits = 0, 32, srcBits
	}
	keys := b.keys
	for i, k := range keys {
		keys[i] = (k>>major&math.MaxUint32)<<b.minorBits | k>>minor&math.MaxUint32
	}
	b.tmp = slices.Grow(b.tmp[:0], len(keys))[:len(keys)]
	sorted, _ := b.sorter.sort(srcBits+dstBits, keys, b.tmp, nil, nil)
	other := b.tmp
	if len(keys) > 0 && &sorted[0] != &keys[0] {
		other = keys
	}
	u := 0
	for i := 0; i < len(sorted); u++ {
		k, j := sorted[i], i+1
		for j < len(sorted) && sorted[j] == k {
			j++
		}
		sorted[u], other[u] = k, uint64(j-i)
		i = j
	}
	b.links, b.counts = sorted[:u], other[:u]
}

// sortMinor regroups the closed window's unique links by their minor
// id, carrying each link's packet count: the one extra sort of the
// side that is not major.
func (b *Builder) sortMinor() {
	b.close()
	if b.minorSorted {
		return
	}
	b.minorSorted = true
	u := len(b.links)
	mask := uint64(1)<<b.minorBits - 1
	b.side = slices.Grow(b.side[:0], 4*u)[:4*u]
	ids, counts := b.side[:u], b.side[u:2*u]
	for i, k := range b.links {
		ids[i] = k & mask
	}
	copy(counts, b.counts)
	b.minorIDs, b.minorCounts = b.sorter.sort(b.minorBits, ids, b.side[2*u:3*u], counts, b.side[3*u:])
}

// forEachNode calls f for every node of one side (the sources when src
// is set) with its packet total and fan, in ascending id order: runs of
// one major id over the links, or of one minor id over the minor sort.
func (b *Builder) forEachNode(src bool, f func(id uint32, pk, fan int64)) {
	b.close()
	ids, counts, shift := b.links, b.counts, b.minorBits
	if src == b.dstMajor {
		b.sortMinor()
		ids, counts, shift = b.minorIDs, b.minorCounts, 0
	}
	for i := 0; i < len(ids); {
		id := ids[i] >> shift
		pk, j := counts[i], i+1
		for ; j < len(ids) && ids[j]>>shift == id; j++ {
			pk += counts[j]
		}
		f(uint32(id), int64(pk), int64(j-i))
		i = j
	}
}

// countRuns returns the number of distinct ids >> shift in ascending
// ids.
func countRuns(ids []uint64, shift uint) int64 {
	var n int64
	for i, k := range ids {
		if i == 0 || k>>shift != ids[i-1]>>shift {
			n++
		}
	}
	return n
}

// Reset empties the builder for the next window, keeping the capacity
// of every buffer.
func (b *Builder) Reset() {
	b.keys = b.keys[:0]
	b.or, b.total = 0, 0
	b.closed, b.minorSorted = false, false
}

// Total returns the number of packets accumulated so far (= NV at window
// close).
func (b *Builder) Total() int64 { return b.total }

// Aggregates returns the Table I aggregate properties of the window:
// unique links and the major side's nodes are runs of the sorted links,
// the other side's nodes runs of the minor sort.
func (b *Builder) Aggregates() Aggregates {
	b.sortMinor()
	src, dst := countRuns(b.links, b.minorBits), countRuns(b.minorIDs, 0)
	if b.dstMajor {
		src, dst = dst, src
	}
	return Aggregates{
		ValidPackets:       b.total,
		UniqueLinks:        int64(len(b.links)),
		UniqueSources:      src,
		UniqueDestinations: dst,
	}
}

// ForEachSourcePacket calls f for every source and its packet total (the
// "source packets" reduction of Fig. 1), in ascending id order.
func (b *Builder) ForEachSourcePacket(f func(id uint32, n int64)) {
	b.forEachNode(true, func(id uint32, pk, _ int64) { f(id, pk) })
}

// ForEachSourceFanOut calls f for every source and its unique-destination
// count ("source fan-out"), in ascending id order.
func (b *Builder) ForEachSourceFanOut(f func(id uint32, n int64)) {
	b.forEachNode(true, func(id uint32, _, fan int64) { f(id, fan) })
}

// ForEachDestinationFanIn calls f for every destination and its
// unique-source count ("destination fan-in"), in ascending id order.
func (b *Builder) ForEachDestinationFanIn(f func(id uint32, n int64)) {
	b.forEachNode(false, func(id uint32, _, fan int64) { f(id, fan) })
}

// ForEachDestinationPacket calls f for every destination and its packet
// total ("destination packets"), in ascending id order.
func (b *Builder) ForEachDestinationPacket(f func(id uint32, n int64)) {
	b.forEachNode(false, func(id uint32, pk, _ int64) { f(id, pk) })
}

// ForEachLink calls f for every unique link and its packet count (the
// "link packets" reduction of Fig. 1), in ascending order of the major
// id, then the minor one.
func (b *Builder) ForEachLink(f func(src, dst uint32, count int64)) {
	b.close()
	mask := uint64(1)<<b.minorBits - 1
	for i, k := range b.links {
		major, minor := uint32(k>>b.minorBits), uint32(k&mask)
		if b.dstMajor {
			major, minor = minor, major
		}
		f(major, minor, int64(b.counts[i]))
	}
}

// Partial freezes the window into a deterministic, mergeable
// WindowPartial: a copy of a source-major window's links, which are
// already in canonical (Src, Dst) order.
func (b *Builder) Partial() WindowPartial {
	if b.dstMajor {
		panic("spmat: a destination-major window has no canonical (Src, Dst) order")
	}
	b.close()
	return WindowPartial{entries: entriesFromRuns(b.links, b.counts, b.minorBits), total: b.total}
}

// Build freezes the window into an immutable CSR-ordered Matrix.
func (b *Builder) Build() *Matrix {
	p := b.Partial()
	return &Matrix{entries: p.entries, total: p.total}
}

// Matrix is an immutable sparse traffic matrix in row-major (CSR-like)
// entry order. Row ids are source addresses, column ids destinations;
// the address space is sparse (uint32 ids, no dense dimension).
type Matrix struct {
	entries []Entry // sorted by (Src, Dst), unique keys
	total   int64   // Σ counts = NV
}

// FromEntries builds a Matrix from arbitrary-order entries, combining
// duplicate (src, dst) keys by summation. The entries' packed keys go
// through the package's radix sort, carrying their counts.
func FromEntries(entries []Entry) *Matrix {
	n := len(entries)
	buf := make([]uint64, 4*n)
	width, dstBits := packEntries(entries, buf[:n], buf[n:2*n])
	var r radixSort
	keys, vals := r.sort(width, buf[:n], buf[2*n:3*n], buf[n:2*n], buf[3*n:])
	out := entriesFromRuns(keys, vals, dstBits)
	var total int64
	for _, e := range out {
		total += e.Count
	}
	return &Matrix{entries: out, total: total}
}

// packEntries writes each entry's compacted key, src<<dstBits | dst,
// and its count into keys and counts. It returns the keys' width and
// dstBits, the width of the largest Dst.
func packEntries(entries []Entry, keys, counts []uint64) (width, dstBits uint) {
	var srcOr, dstOr uint32
	for _, e := range entries {
		srcOr, dstOr = srcOr|e.Src, dstOr|e.Dst
	}
	dstBits = uint(bits.Len32(dstOr))
	for i, e := range entries {
		keys[i], counts[i] = uint64(e.Src)<<dstBits|uint64(e.Dst), uint64(e.Count)
	}
	return uint(bits.Len32(srcOr)) + dstBits, dstBits
}

// entriesFromRuns turns ascending src<<dstBits | dst keys and their
// counts into canonical entries, summing the counts of equal keys.
func entriesFromRuns(keys, counts []uint64, dstBits uint) []Entry {
	out := make([]Entry, 0, countRuns(keys, 0))
	mask := uint64(1)<<dstBits - 1
	for i, k := range keys {
		if n := len(out); i > 0 && k == keys[i-1] {
			out[n-1].Count += int64(counts[i])
			continue
		}
		out = append(out, Entry{Src: uint32(k >> dstBits), Dst: uint32(k & mask), Count: int64(counts[i])})
	}
	return out
}

// Entries returns the matrix's entries in row-major order. The slice is
// shared; callers must not modify it.
func (m *Matrix) Entries() []Entry { return m.entries }

// ValidPackets returns NV = Σi Σj At(i,j) (Table I row 1; matrix form 1ᵀAt1).
func (m *Matrix) ValidPackets() int64 { return m.total }

// UniqueLinks returns Σi Σj |At(i,j)|₀ (Table I row 2; matrix form 1ᵀ|At|₀1).
func (m *Matrix) UniqueLinks() int64 { return int64(len(m.entries)) }

// UniqueSources returns Σi |Σj At(i,j)|₀ (Table I row 3; matrix form 1ᵀ|At·1|₀).
func (m *Matrix) UniqueSources() int64 {
	var n int64
	for i, e := range m.entries {
		if i == 0 || e.Src != m.entries[i-1].Src {
			n++
		}
	}
	return n
}

// UniqueDestinations returns Σj |Σi At(i,j)|₀ (Table I row 4; matrix form
// |1ᵀAt|₀1).
func (m *Matrix) UniqueDestinations() int64 {
	n := len(m.entries)
	buf := make([]uint64, 2*n)
	var or uint64
	for i, e := range m.entries {
		buf[i] = uint64(e.Dst)
		or |= buf[i]
	}
	var r radixSort
	ids, _ := r.sort(uint(bits.Len64(or)), buf[:n], buf[n:], nil, nil)
	return countRuns(ids, 0)
}

// Aggregates bundles the four Table I aggregate properties of a window.
type Aggregates struct {
	ValidPackets       int64
	UniqueLinks        int64
	UniqueSources      int64
	UniqueDestinations int64
}

// TableI computes all four aggregates in a single pass.
func (m *Matrix) TableI() Aggregates {
	return Aggregates{
		ValidPackets:       m.ValidPackets(),
		UniqueLinks:        m.UniqueLinks(),
		UniqueSources:      m.UniqueSources(),
		UniqueDestinations: m.UniqueDestinations(),
	}
}

// String renders the aggregates as a Table I-shaped report.
func (a Aggregates) String() string {
	return fmt.Sprintf("valid packets NV=%d, unique links=%d, unique sources=%d, unique destinations=%d",
		a.ValidPackets, a.UniqueLinks, a.UniqueSources, a.UniqueDestinations)
}

// Transpose returns Atᵀ (destination-major view), used to verify the
// column-aggregate identities (unique destinations of A == unique sources
// of Aᵀ).
func (m *Matrix) Transpose() *Matrix {
	es := make([]Entry, len(m.entries))
	for i, e := range m.entries {
		es[i] = Entry{Src: e.Dst, Dst: e.Src, Count: e.Count}
	}
	return FromEntries(es)
}

// ParallelBuild shards a packet slice across workers, sorts each shard
// into canonical entries and merges the sorted runs: the D4M-style
// parallel aggregation path. workers <= 0 selects GOMAXPROCS.
func ParallelBuild(packets []Entry, workers int) *Matrix {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := make([]WindowPartial, max(1, min(workers, len(packets))))
	chunk := (len(packets) + len(shards) - 1) / len(shards)
	var wg sync.WaitGroup
	for w := range shards {
		shard := packets[min(w*chunk, len(packets)):min((w+1)*chunk, len(packets))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := FromEntries(shard)
			shards[w] = WindowPartial{entries: m.entries, total: m.total}
		}()
	}
	wg.Wait()
	var root WindowPartial
	for _, s := range shards {
		root = root.Merge(s)
	}
	return &Matrix{entries: root.entries, total: root.total}
}
