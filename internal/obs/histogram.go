package obs

import (
	"math"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Histogram is a fixed-boundary histogram of int64 observations (by
// convention nanoseconds for timers, but any quantity works). Bucket
// boundaries are ascending inclusive upper bounds with an implicit +Inf
// overflow bucket, Prometheus `le` semantics: an observation lands in
// the first bucket whose bound is >= the value.
//
// Counts are striped across cache-line-padded shards — one per CPU,
// rounded up to a power of two — and a goroutine picks its stripe from
// a cheap hash of its stack address, so concurrent observers on
// different CPUs almost never contend on one cache line. Snapshots sum
// the stripes; striping is invisible to readers.
//
// A nil *Histogram drops observations.
type Histogram struct {
	bounds []int64
	mask   uint64 // len(stripes) - 1
	str    []histStripe
}

// histStripe is one stripe's counts, padded to two cache lines so
// adjacent stripes never share one (bucket count arrays are separate
// allocations). There is no separate total: the count is the sum of the
// buckets, so no reader can see a total that disagrees with them.
type histStripe struct {
	sum  atomic.Int64
	cnts []atomic.Int64
	_    [128 - 32]byte
}

// newHistogram builds a histogram with the given ascending boundaries.
func newHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram boundaries must be strictly ascending")
		}
	}
	n := 1
	for n < runtime.NumCPU() && n < 64 {
		n <<= 1
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		mask:   uint64(n - 1),
		str:    make([]histStripe, n),
	}
	for i := range h.str {
		h.str[i].cnts = make([]atomic.Int64, len(bounds)+1)
	}
	return h
}

// stripeHint picks this goroutine's stripe: a splitmix-style mix of a
// local's stack address. Stack addresses are stable within a goroutine
// between stack growths and distinct across goroutines, which is all a
// contention-avoidance hint needs — correctness never depends on the
// choice, any stripe is valid.
func stripeHint(mask uint64) uint64 {
	var x byte
	h := uint64(uintptr(unsafe.Pointer(&x)))
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h & mask
}

// bucketOf returns the index of the bucket holding v: the first bound
// >= v, or the overflow bucket. Boundaries are few (the default latency
// scale has 14), so a linear scan beats binary search dispatch.
func (h *Histogram) bucketOf(v int64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	s := &h.str[stripeHint(h.mask)]
	s.cnts[h.bucketOf(v)].Add(1)
	s.sum.Add(v)
}

// Count returns the total number of observations: the sum of every
// stripe's buckets.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.str {
		for j := range h.str[i].cnts {
			n += h.str[i].cnts[j].Load()
		}
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.str {
		n += h.str[i].sum.Load()
	}
	return n
}

// snapshot sums the stripes into cumulative buckets (le semantics: each
// bucket's count includes every smaller bucket). The count is the +Inf
// bucket itself, so the two always agree.
func (h *Histogram) snapshot() (count, sum int64, buckets []Bucket) {
	per := make([]int64, len(h.bounds)+1)
	for i := range h.str {
		s := &h.str[i]
		sum += s.sum.Load()
		for j := range per {
			per[j] += s.cnts[j].Load()
		}
	}
	buckets = make([]Bucket, len(per))
	var cum int64
	for j, c := range per {
		cum += c
		ub := int64(math.MaxInt64)
		if j < len(h.bounds) {
			ub = h.bounds[j]
		}
		buckets[j] = Bucket{UpperBound: ub, Count: cum}
	}
	return cum, sum, buckets
}

// DefaultLatencyBounds returns the standard nanosecond boundaries used
// by stage timers: powers of four from 256ns to ~17s (14 buckets plus
// overflow), spanning a sub-microsecond batch deposit to a whole suite
// run.
func DefaultLatencyBounds() []int64 {
	bounds := make([]int64, 0, 14)
	for v := int64(256); len(bounds) < 14; v *= 4 {
		bounds = append(bounds, v)
	}
	return bounds
}
