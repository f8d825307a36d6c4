package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-boundary histogram of int64 observations (by
// convention nanoseconds for timers, but any quantity works). Bucket
// boundaries are ascending inclusive upper bounds with an implicit +Inf
// overflow bucket, Prometheus `le` semantics: an observation lands in
// the first bucket whose bound is >= the value.
//
// Each bucket is one atomic counter, and the sum one more. There is no
// separate total: the count is the sum of the buckets, so no reader can
// see a total that disagrees with them.
//
// A nil *Histogram drops observations.
type Histogram struct {
	bounds []int64
	sum    atomic.Int64
	cnts   []atomic.Int64 // len(bounds) + 1: the last is the overflow bucket
}

// newHistogram builds a histogram with the given ascending boundaries.
func newHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram boundaries must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		cnts:   make([]atomic.Int64, len(bounds)+1),
	}
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
	h.cnts[h.bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// snapshot returns cumulative buckets (le semantics: each bucket's
// count includes every smaller bucket). The count is the +Inf bucket
// itself, so the two always agree.
func (h *Histogram) snapshot() (count, sum int64, buckets []Bucket) {
	sum = h.sum.Load()
	buckets = make([]Bucket, len(h.cnts))
	var cum int64
	for j := range h.cnts {
		cum += h.cnts[j].Load()
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
