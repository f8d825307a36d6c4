package zipfmand

// Bootstrap confidence intervals for the modified Zipf–Mandelbrot fit,
// built on the shared parallel bootstrap engine (internal/boot): the
// paper reports point fits only; the intervals quantify how much of the
// Fig. 3 (α, δ) variation is sampling noise.

import (
	"errors"

	"hybridplaw/internal/boot"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/xrand"
)

// Interval is a two-sided bootstrap percentile interval (shared with
// the other bootstrap consumers through the boot engine).
type Interval = boot.Interval

// ConfidenceIntervals are percentile bootstrap intervals for the fitted
// (α, δ).
type ConfidenceIntervals struct {
	Alpha, Delta Interval
	// Level is the nominal coverage (e.g. 0.9).
	Level float64
	// Reps is the number of bootstrap replicates that produced fits.
	Reps int
}

// BootstrapCI resamples the histogram (nonparametric multinomial
// bootstrap), refits (α, δ) on each replicate, and returns percentile
// intervals. Replicates whose fit fails are skipped; at least half must
// succeed. Replicates run on the shared boot pool, so results are
// identical at every GOMAXPROCS.
func BootstrapCI(h *hist.Histogram, opts FitOptions, reps int, level float64, rng *xrand.RNG) (ConfidenceIntervals, error) {
	if h == nil || h.Total() == 0 {
		return ConfidenceIntervals{}, errors.New("zipfmand: empty histogram")
	}
	if reps < 10 {
		return ConfidenceIntervals{}, errors.New("zipfmand: need at least 10 bootstrap reps")
	}
	if level <= 0 || level >= 1 {
		return ConfidenceIntervals{}, errors.New("zipfmand: level must be in (0,1)")
	}
	results, errs, err := boot.Run(reps, rng,
		func(rep int, rng *xrand.RNG) (Model, error) {
			hb, err := boot.ResampleHistogram(h, rng)
			if err != nil {
				return Model{}, err
			}
			fit, _, err := FitHistogram(hb, opts)
			if err != nil {
				return Model{}, err
			}
			return fit.Model, nil
		})
	if err != nil {
		return ConfidenceIntervals{}, err
	}
	var alphas, deltas []float64
	for rep, m := range results {
		if errs[rep] != nil {
			continue
		}
		alphas = append(alphas, m.Alpha)
		deltas = append(deltas, m.Delta)
	}
	if len(alphas) < reps/2 {
		return ConfidenceIntervals{}, errors.New("zipfmand: too many bootstrap replicates failed")
	}
	return ConfidenceIntervals{
		Alpha: boot.PercentileInterval(alphas, level),
		Delta: boot.PercentileInterval(deltas, level),
		Level: level,
		Reps:  len(alphas),
	}, nil
}
