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
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Entry is a single (source, destination, count) triple.
type Entry struct {
	Src, Dst uint32
	Count    int64
}

// Builder accumulates packet observations into a sparse matrix. It is the
// COO/DOK accumulation stage; Build freezes it into an immutable Matrix.
//
// The hot path maintains exactly one reduction while packets arrive: the
// per-link packet counts, one flat-table accumulation per packet (see
// AddPairs for the bulk fused-decode entry point). Every other Fig. 1
// reduction is *derived* from the link table the first time it is asked
// for after an accumulation, one side at a time: the source side
// (per-source packet totals and fan-out) for ForEachSource* and the
// snapshots of those, the destination side (per-destination packet
// totals and fan-in) for ForEachDestination*, and both sides, in one
// pass, for the Table I aggregates. A window closes once, so the
// streaming pipeline pays each side it reads at most once per window
// while its per-packet loop stays a single hash, probe and add; the
// derived tables are identical to what incremental maintenance would
// have produced, because every reduction is an order-independent
// integer accumulation over the same link counts.
//
// A Builder always holds the link table: every answer it gives is read
// from, or derived from, the links it accumulated. A window whose
// readers want only per-node packet totals, which need no link table,
// accumulates into a NodeCounter instead of a Builder.
//
// A Reset lets one builder be pooled across windows without reallocating
// any of its tables. Builder is not safe for concurrent use: the
// accessor methods (Aggregates, ForEach*) may materialize the
// derived reductions and therefore also mutate internal state.
//
// Storage is the open-addressing flat tables of flat.go, not Go maps:
// the per-packet accumulation is the hottest loop in the repo, and the
// flat tables turn it into a hash, a short linear probe over interleaved
// key/count slots and an in-place add.
type Builder struct {
	counts flatTable[uint64] // packets per (src, dst) link — the hot path
	// Derived from counts on demand (see derive); each side is valid
	// while its flag is set. Each node table interleaves both reductions
	// keyed by that endpoint — packet totals (row/column sums) with
	// fan-out/fan-in — so derive pays one probe per link endpoint
	// instead of two.
	srcTab     nodeTable // per source: packets sent, unique destinations
	dstTab     nodeTable // per destination: packets received, unique sources
	total      int64
	srcDerived bool
	dstDerived bool
}

// NewBuilder returns an empty accumulation builder.
func NewBuilder() *Builder {
	return &Builder{}
}

// Add accumulates n packets from src to dst. n must be positive.
func (b *Builder) Add(src, dst uint32, n int64) error {
	if n <= 0 {
		return errors.New("spmat: non-positive packet count")
	}
	b.addN(src, dst, n)
	return nil
}

// addN is the unchecked accumulation core: n > 0.
func (b *Builder) addN(src, dst uint32, n int64) {
	b.counts.add(linkKey(src, dst), n)
	b.total += n
	b.srcDerived, b.dstDerived = false, false
}

// AddPairs bulk-accumulates packed (src<<32 | dst) link keys, one packet
// each: the fused decode→reduce entry point. Batching lets the flat
// table overlap the cache misses of several probes (see addBatch), so
// feeding the builder runs of keys is measurably faster than one
// addN per packet even before any decode fusion.
func (b *Builder) AddPairs(keys []uint64) {
	if len(keys) == 0 {
		return
	}
	b.counts.addBatch(keys, 0)
	b.total += int64(len(keys))
	b.srcDerived, b.dstDerived = false, false
}

// derive materializes the requested sides of the node reductions that
// are not derived yet, in one pass over the link counts: each unique
// link contributes its count and one fan unit to its source's and/or
// destination's interleaved node slots. Each reduction is an
// order-independent integer accumulation, so the result is identical
// to incremental per-packet maintenance regardless of the order packets
// (or merged shards) arrived in, and regardless of which side was
// derived first.
func (b *Builder) derive(src, dst bool) {
	src = src && !b.srcDerived
	dst = dst && !b.dstDerived
	if !src && !dst {
		return
	}
	if src {
		b.srcTab.reset()
	}
	if dst {
		b.dstTab.reset()
	}
	b.counts.forEach(func(k uint64, v int64) {
		if src {
			b.srcTab.add(uint32(k>>32), v)
		}
		if dst {
			b.dstTab.add(uint32(k), v)
		}
	})
	b.srcDerived = b.srcDerived || src
	b.dstDerived = b.dstDerived || dst
}

// Merge folds another builder's link counts into b. The other builder
// remains valid; Merge is the reduction step of ParallelBuild's
// per-worker builders. It is correct under any packet partitioning: per-link counts
// combine by addition, and every node reduction re-derives from the
// merged link table.
func (b *Builder) Merge(other *Builder) {
	other.counts.forEach(func(k uint64, v int64) {
		b.counts.add(k, v)
	})
	b.total += other.total
	b.srcDerived, b.dstDerived = false, false
}

// Reset empties the builder for reuse, retaining the allocated table
// capacity: the pipeline's per-window allocation-churn killer.
func (b *Builder) Reset() {
	b.counts.reset()
	b.srcTab.reset()
	b.dstTab.reset()
	b.total = 0
	b.srcDerived, b.dstDerived = false, false
}

// Total returns the number of packets accumulated so far (= NV at window
// close).
func (b *Builder) Total() int64 { return b.total }

// Aggregates returns the Table I aggregate properties of the accumulated
// window: O(1) once both sides of the node reductions are derived, one
// pass over the link table the first time after an accumulation.
func (b *Builder) Aggregates() Aggregates {
	b.derive(true, true)
	return Aggregates{
		ValidPackets:       b.total,
		UniqueLinks:        int64(b.counts.len()),
		UniqueSources:      int64(b.srcTab.len()),
		UniqueDestinations: int64(b.dstTab.len()),
	}
}

// ForEachSourcePacket calls f for every source and its packet total (the
// "source packets" reduction of Fig. 1), in unspecified order.
func (b *Builder) ForEachSourcePacket(f func(id uint32, n int64)) {
	b.derive(true, false)
	b.srcTab.forEachPk(f)
}

// ForEachSourceFanOut calls f for every source and its unique-destination
// count ("source fan-out"), in unspecified order.
func (b *Builder) ForEachSourceFanOut(f func(id uint32, n int64)) {
	b.derive(true, false)
	b.srcTab.forEachFan(f)
}

// ForEachDestinationFanIn calls f for every destination and its
// unique-source count ("destination fan-in"), in unspecified order.
func (b *Builder) ForEachDestinationFanIn(f func(id uint32, n int64)) {
	b.derive(false, true)
	b.dstTab.forEachFan(f)
}

// ForEachDestinationPacket calls f for every destination and its packet
// total ("destination packets"), in unspecified order.
func (b *Builder) ForEachDestinationPacket(f func(id uint32, n int64)) {
	b.derive(false, true)
	b.dstTab.forEachPk(f)
}

// ForEachLink calls f for every accumulated unique link and its packet
// count (the "link packets" reduction of Fig. 1), in unspecified order.
func (b *Builder) ForEachLink(f func(src, dst uint32, count int64)) {
	b.counts.forEach(func(k uint64, v int64) {
		f(uint32(k>>32), uint32(k), v)
	})
}

// sortedEntries freezes the link counts into canonical (Src, Dst)-sorted
// entries: the one shared materialization behind Build and Partial. The
// packed link key orders exactly as the (Src, Dst) lexicographic pair,
// so a single integer comparison sorts canonically.
func (b *Builder) sortedEntries() []Entry {
	entries := make([]Entry, 0, b.counts.len())
	b.counts.forEach(func(k uint64, v int64) {
		entries = append(entries, Entry{Src: uint32(k >> 32), Dst: uint32(k), Count: v})
	})
	slices.SortFunc(entries, func(a, e Entry) int {
		ka, ke := linkKey(a.Src, a.Dst), linkKey(e.Src, e.Dst)
		switch {
		case ka < ke:
			return -1
		case ka > ke:
			return 1
		}
		return 0
	})
	return entries
}

// Build freezes the accumulated counts into an immutable CSR-ordered
// Matrix. The builder can continue to accumulate afterwards.
func (b *Builder) Build() *Matrix {
	return &Matrix{entries: b.sortedEntries(), total: b.total}
}

// Partial freezes the accumulated state into a deterministic, mergeable
// WindowPartial. The builder can continue to accumulate afterwards.
func (b *Builder) Partial() WindowPartial {
	return WindowPartial{entries: b.sortedEntries(), total: b.total}
}

// Matrix is an immutable sparse traffic matrix in row-major (CSR-like)
// entry order. Row ids are source addresses, column ids destinations;
// the address space is sparse (uint32 ids, no dense dimension).
type Matrix struct {
	entries []Entry // sorted by (Src, Dst), unique keys
	total   int64   // Σ counts = NV
}

// sortEntries orders entries by (Src, Dst): the canonical row-major
// entry order shared by Matrix and WindowPartial.
func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		return es[i].Dst < es[j].Dst
	})
}

// FromEntries builds a Matrix from arbitrary-order entries, combining
// duplicate (src, dst) keys by summation.
func FromEntries(entries []Entry) *Matrix {
	es := append([]Entry(nil), entries...)
	sortEntries(es)
	// Combine duplicates in place.
	out := es[:0]
	for _, e := range es {
		if n := len(out); n > 0 && out[n-1].Src == e.Src && out[n-1].Dst == e.Dst {
			out[n-1].Count += e.Count
		} else {
			out = append(out, e)
		}
	}
	var total int64
	for _, e := range out {
		total += e.Count
	}
	return &Matrix{entries: out, total: total}
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
	var prev uint32
	first := true
	for _, e := range m.entries {
		if first || e.Src != prev {
			n++
			prev = e.Src
			first = false
		}
	}
	return n
}

// UniqueDestinations returns Σj |Σi At(i,j)|₀ (Table I row 4; matrix form
// |1ᵀAt|₀1).
func (m *Matrix) UniqueDestinations() int64 {
	seen := make(map[uint32]struct{}, len(m.entries))
	for _, e := range m.entries {
		seen[e.Dst] = struct{}{}
	}
	return int64(len(seen))
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

// ParallelBuild shards a packet slice across workers, accumulates each
// shard into a private builder, and merges: the D4M-style parallel
// aggregation path. workers <= 0 selects GOMAXPROCS.
func ParallelBuild(packets []Entry, workers int) *Matrix {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(packets) {
		workers = len(packets)
	}
	if workers <= 1 {
		b := NewBuilder()
		for _, p := range packets {
			b.addN(p.Src, p.Dst, p.Count)
		}
		return b.Build()
	}
	shards := make([]*Builder, workers)
	var wg sync.WaitGroup
	chunk := (len(packets) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(packets) {
			hi = len(packets)
		}
		if lo >= hi {
			shards[w] = NewBuilder()
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			b := NewBuilder()
			for _, p := range packets[lo:hi] {
				b.addN(p.Src, p.Dst, p.Count)
			}
			shards[w] = b
		}(w, lo, hi)
	}
	wg.Wait()
	root := shards[0]
	for _, s := range shards[1:] {
		root.Merge(s)
	}
	return root.Build()
}
