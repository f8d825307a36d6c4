package model

import (
	"fmt"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/stats"
	"hybridplaw/internal/zipfmand"
)

// problemOf returns the likelihood problem of zm-mle, lognormal or
// truncplaw on h; ok is false for any other fitter.
func problemOf(f Fitter, h *hist.Histogram) (p mleProblem, ok bool) {
	switch f := f.(type) {
	case ZMMLEFitter:
		return f.problem(h), true
	case LognormalFitter:
		return f.problem(h), true
	case TruncPowerLawFitter:
		return f.problem(h), true
	}
	return mleProblem{}, false
}

// NegLogLikJet returns the oracle of f's negated log-likelihood on h at
// x: its value, gradient and Hessian. f is zm-mle, lognormal or
// truncplaw.
func NegLogLikJet(f Fitter, h *hist.Histogram, x [2]float64) stats.Jet {
	p, ok := problemOf(f, h)
	if !ok {
		panic(fmt.Sprintf("NegLogLikJet: %s has no likelihood oracle", f.Name()))
	}
	return p.oracle(x)
}

// FitFromEachStart fits h with f once from each of f's candidate starts
// alone and returns the starts with the fits. zm runs through
// zipfmand.FitOptions.Starts; zm-mle, lognormal and truncplaw through
// their likelihood problem.
func FitFromEachStart(f Fitter, h *hist.Histogram) (starts [][2]float64, fits []FitResult, errs []error) {
	if f, ok := f.(ZMFitter); ok {
		opts := zipfmand.DefaultFitOptions()
		for _, s := range opts.Starts {
			starts = append(starts, [2]float64{s[0], s[1]})
			one := opts
			one.Starts = [][]float64{s}
			fit, err := f.fit(h, one)
			fits, errs = append(fits, fit), append(errs, err)
		}
		return starts, fits, errs
	}
	p, ok := problemOf(f, h)
	if !ok {
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
