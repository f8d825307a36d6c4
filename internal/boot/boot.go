// Package boot is the shared parallel bootstrap engine behind every
// resampling procedure in the repository: the Section IV.B estimator
// intervals (estimate.BootstrapEstimate), the CSN goodness-of-fit test
// (powerlaw.BootstrapPValue), and the modified Zipf–Mandelbrot
// confidence intervals (zipfmand.BootstrapCI).
//
// The engine runs replicates on a pool of GOMAXPROCS goroutines with
// deterministic per-replicate RNG streams: before any work starts, one
// child generator per replicate is split from the caller's generator in
// replicate order (each Split advances the parent by exactly one draw),
// so replicate r always sees the same stream no matter how many
// goroutines run or how the scheduler interleaves them. Runs at every
// GOMAXPROCS, 1 included, are replicate-identical by construction.
package boot

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/stats"
	"hybridplaw/internal/xrand"
)

// Replicate computes one bootstrap replicate. rep is the replicate index
// (0-based) and rng its private deterministic stream.
type Replicate[T any] func(rep int, rng *xrand.RNG) (T, error)

// Run executes reps replicates of fn on min(GOMAXPROCS, reps)
// goroutines. The returned slices are indexed by replicate: values[r]
// holds fn's result and errs[r] its error (nil on success), so output
// order is independent of scheduling.
//
// Every replicate's RNG is split from rng upfront in replicate order;
// rng therefore advances by exactly reps draws at any pool width.
func Run[T any](reps int, rng *xrand.RNG, fn Replicate[T]) (values []T, errs []error, err error) {
	if reps <= 0 {
		return nil, nil, errors.New("boot: reps must be positive")
	}
	if rng == nil {
		return nil, nil, errors.New("boot: nil rng")
	}
	if fn == nil {
		return nil, nil, errors.New("boot: nil replicate function")
	}
	rngs := make([]*xrand.RNG, reps)
	for r := range rngs {
		rngs[r] = rng.Split()
	}
	values = make([]T, reps)
	errs = make([]error, reps)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(runtime.GOMAXPROCS(0), reps); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				// Split allocates the generators back to back, two to
				// a cache line: a copy made by the running goroutine
				// keeps two replicates' draws off one line.
				local := *rngs[r]
				values[r], errs[r] = fn(r, &local)
			}
		}()
	}
	for r := 0; r < reps; r++ {
		next <- r
	}
	close(next)
	wg.Wait()
	return values, errs, nil
}

// ResampleHistogram draws one nonparametric (multinomial) bootstrap
// replicate of h: Total() observations resampled from the empirical
// degree distribution.
func ResampleHistogram(h *hist.Histogram, rng *xrand.RNG) (*hist.Histogram, error) {
	if h == nil || h.Total() == 0 {
		return nil, errors.New("boot: empty histogram")
	}
	support := h.Support()
	counts := make([]float64, len(support))
	for i, d := range support {
		counts[i] = float64(h.Count(d))
	}
	resampled := stats.BootstrapCounts(rng, counts, int(h.Total()))
	hb := hist.New()
	for i, c := range resampled {
		if c > 0 {
			if err := hb.AddN(support[i], int64(c)); err != nil {
				return nil, err
			}
		}
	}
	return hb, nil
}

// Interval is a two-sided bootstrap percentile interval.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies in [Lo, Hi].
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// PercentileInterval returns the two-sided percentile interval of xs at
// the given nominal coverage level (e.g. 0.9 keeps the central 90%).
// A zero Interval is returned when xs is empty or the quantiles are NaN.
func PercentileInterval(xs []float64, level float64) Interval {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	tail := (1 - level) / 2
	lo := stats.Quantile(sorted, tail)
	hi := stats.Quantile(sorted, 1-tail)
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return Interval{}
	}
	return Interval{Lo: lo, Hi: hi}
}
