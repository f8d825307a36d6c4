package model

import (
	"fmt"

	"hybridplaw/internal/hist"
)

// FitFromEachStart fits h with f once from each of f's candidate starts
// alone and returns the starts with the fits. zm runs through
// zipfmand.FitOptions.Starts; zm-mle, lognormal and truncplaw through
// their likelihood problem.
func FitFromEachStart(f Fitter, h *hist.Histogram) (starts [][2]float64, fits []FitResult, errs []error) {
	var p mleProblem
	switch f := f.(type) {
	case ZMFitter:
		for _, s := range f.Opts.Starts {
			starts = append(starts, [2]float64{s[0], s[1]})
			one := f
			one.Opts.Starts = [][]float64{s}
			fit, err := one.Fit(h)
			fits, errs = append(fits, fit), append(errs, err)
		}
		return starts, fits, errs
	case ZMMLEFitter:
		p = f.problem(h)
	case LognormalFitter:
		p = f.problem(h)
	case TruncPowerLawFitter:
		p = f.problem(h)
	default:
		panic(fmt.Sprintf("FitFromEachStart: %s has no start list", f.Name()))
	}
	for _, s := range p.starts {
		one := p
		one.starts = [][2]float64{s}
		fit, err := one.fit(f.Name(), h)
		starts, fits, errs = append(starts, s), append(fits, fit), append(errs, err)
	}
	return starts, fits, errs
}
