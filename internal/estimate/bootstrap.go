package estimate

import (
	"errors"

	"hybridplaw/internal/boot"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/xrand"
)

// Interval is a two-sided bootstrap percentile interval (shared with
// the other bootstrap consumers through the boot engine).
type Interval = boot.Interval

// ConfidenceIntervals are percentile bootstrap intervals for the Section
// IV.B estimates — the uncertainty quantification the paper leaves
// implicit behind its ±1σ error bars.
type ConfidenceIntervals struct {
	Alpha, C, L, U, Mu Interval
	// Level is the nominal coverage (e.g. 0.9).
	Level float64
	// Reps is the number of bootstrap replicates that produced estimates.
	Reps int
}

// BootstrapEstimate resamples the degree histogram (nonparametric
// multinomial bootstrap), re-runs the estimation pipeline on each
// replicate, and returns percentile intervals at the given level.
// Replicates whose estimation fails (e.g. degenerate resampled tails)
// are skipped; at least half must succeed.
//
// Replicates run on the shared boot pool (GOMAXPROCS goroutines) with
// deterministic per-replicate RNG streams, so the intervals are identical
// at every GOMAXPROCS, 1 included.
func BootstrapEstimate(h *hist.Histogram, opts Options, reps int, level float64, rng *xrand.RNG) (ConfidenceIntervals, error) {
	if h == nil || h.Total() == 0 {
		return ConfidenceIntervals{}, errors.New("estimate: empty histogram")
	}
	if reps < 10 {
		return ConfidenceIntervals{}, errors.New("estimate: need at least 10 bootstrap reps")
	}
	if level <= 0 || level >= 1 {
		return ConfidenceIntervals{}, errors.New("estimate: level must be in (0,1)")
	}
	results, errs, err := boot.Run(reps, rng,
		func(rep int, rng *xrand.RNG) (Result, error) {
			hb, err := boot.ResampleHistogram(h, rng)
			if err != nil {
				return Result{}, err
			}
			return Estimate(hb, opts)
		})
	if err != nil {
		return ConfidenceIntervals{}, err
	}
	var alphas, cs, ls, us, mus []float64
	for rep, res := range results {
		if errs[rep] != nil {
			continue
		}
		alphas = append(alphas, res.Alpha)
		cs = append(cs, res.C)
		ls = append(ls, res.L)
		us = append(us, res.U)
		mus = append(mus, res.Mu)
	}
	if len(alphas) < reps/2 {
		return ConfidenceIntervals{}, errors.New("estimate: too many bootstrap replicates failed")
	}
	ci := ConfidenceIntervals{Level: level, Reps: len(alphas)}
	ci.Alpha = boot.PercentileInterval(alphas, level)
	ci.C = boot.PercentileInterval(cs, level)
	ci.L = boot.PercentileInterval(ls, level)
	ci.U = boot.PercentileInterval(us, level)
	ci.Mu = boot.PercentileInterval(mus, level)
	return ci, nil
}
