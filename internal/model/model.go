// Package model is the unified model layer over the repository's heavy-tail
// degree distributions. Every candidate family — the modified
// Zipf–Mandelbrot of Section II.B, the pure and Clauset–Shalizi–Newman
// power laws, the Section IV.B PALU degree law, and the competing
// discrete-lognormal and truncated (exponential-cutoff) power-law
// families — implements one Model interface, and every fitting procedure
// is a Fitter registered under a stable name. Model comparison is
// likelihood-based (AIC/BIC plus a Vuong-style normalized
// log-likelihood-ratio test, see select.go) rather than the deprecated
// pooled log-SSE contrast of powerlaw.Compare: Clegg et al. (PAPERS.md)
// argue that naive power-law fitting without principled model comparison
// is exactly how spurious power laws enter the literature.
//
// Conventions shared by every family:
//
//   - Distributions live on degrees d >= 1. PMF(dmax) returns the
//     probabilities of the family truncated and renormalized to the finite
//     support 1..dmax (the paper's Eq. (1) convention: dmax is the largest
//     observed value of the network quantity).
//   - LogLik(h) is the multinomial log-likelihood Σ_d n(d)·ln p(d) with
//     p normalized over 1..h.MaxDegree(), so likelihoods of different
//     families on the same histogram are directly comparable. A model
//     assigning zero probability to any observed degree returns -Inf.
//   - Sample draws from the family over its fitted support (SupportMax).
package model

import (
	"errors"
	"fmt"
	"math"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/specialfn"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

// Param is one named model parameter.
type Param struct {
	Name  string
	Value float64
}

// Model is a fitted degree distribution on d >= 1.
type Model interface {
	// Name is the family name ("zm", "csn", "lognormal", ...).
	Name() string
	// Params returns the fitted parameters in a stable order.
	Params() []Param
	// LogLik returns the multinomial log-likelihood of the histogram
	// under the family normalized over 1..h.MaxDegree(). It is -Inf when
	// the model assigns zero probability to an observed degree.
	LogLik(h *hist.Histogram) (float64, error)
	// PMF returns the probabilities for d = 1..dmax (index 0 holds d=1),
	// normalized over that support.
	PMF(dmax int) ([]float64, error)
	// CDF returns the cumulative probabilities for d = 1..dmax.
	CDF(dmax int) ([]float64, error)
	// Sample draws n degrees from the fitted distribution.
	Sample(n int, rng *xrand.RNG) ([]int64, error)
}

// ErrEmptyHistogram indicates a nil or observation-free histogram.
var ErrEmptyHistogram = errors.New("model: empty histogram")

// validateHist rejects empty inputs with a shared error.
func validateHist(h *hist.Histogram) error {
	if h == nil || h.Total() == 0 {
		return ErrEmptyHistogram
	}
	return nil
}

// cdfFromPMF accumulates a PMF into a CDF, clamping the terminal bin.
func cdfFromPMF(pmf []float64) []float64 {
	out := make([]float64, len(pmf))
	var cum float64
	for i, p := range pmf {
		cum += p
		out[i] = cum
	}
	if len(out) > 0 {
		out[len(out)-1] = 1
	}
	return out
}

// sampleFromPMF draws n degrees from a finite-support PMF (index 0 is
// d=1) with the alias method.
func sampleFromPMF(pmf []float64, n int, rng *xrand.RNG) ([]int64, error) {
	if n < 0 {
		return nil, errors.New("model: negative sample size")
	}
	alias, err := xrand.NewAlias(pmf)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(alias.Draw(rng)) + 1
	}
	return out, nil
}

// logLikOverSupport evaluates Σ n(d)·logpmf(d) over the histogram
// support. Any -Inf or NaN log-probability at an observed degree makes
// the whole likelihood -Inf (the model excludes data the histogram
// contains).
func logLikOverSupport(h *hist.Histogram, logpmf func(d int) float64) float64 {
	var ll float64
	for _, d := range h.Support() {
		lp := logpmf(d)
		if math.IsNaN(lp) || math.IsInf(lp, -1) {
			return math.Inf(-1)
		}
		ll += float64(h.Count(d)) * lp
	}
	return ll
}

// poissonSum returns Σ_{d=a}^{b} μ^d/d!. The sum is truncated where the
// terms fall below machine noise relative to the accumulated mass.
func poissonSum(mu float64, a, b int) float64 {
	if b < a || mu < 0 {
		return 0
	}
	if mu == 0 {
		if a == 0 {
			return 1
		}
		return 0
	}
	var s float64
	for d := a; d <= b; d++ {
		term := math.Exp(float64(d)*math.Log(mu) - specialfn.LogFactorial(d))
		s += term
		if float64(d) > mu && term < 1e-18*s {
			break
		}
	}
	return s
}

// cutoffSum returns Σ_{d=a}^{b} d^{-α} e^{-λd}, the normalizer of the
// truncated (exponential-cutoff) power law. The head of the range is
// summed exactly; the smooth remainder is integrated in log space by
// composite Simpson (substituting u = ln x turns the sum's integral
// approximation into ∫ exp((1−α)u − λe^u) du, well-conditioned for any
// α and λ >= 0).
func cutoffSum(alpha, lambda float64, a, b int) float64 {
	if b < a || a < 1 || lambda < 0 {
		return 0
	}
	if lambda == 0 {
		return zipfmand.Model{Alpha: alpha}.BinSum(a, b)
	}
	const exactSpan = 4096
	exactEnd := b
	if b-a+1 > exactSpan {
		exactEnd = a + exactSpan - 1
	}
	var s float64
	for d := a; d <= exactEnd; d++ {
		s += math.Exp(-alpha*math.Log(float64(d)) - lambda*float64(d))
	}
	if exactEnd >= b {
		return s
	}
	// Remainder over (exactEnd, b]: negligible once λx is large.
	lo := float64(exactEnd) + 0.5
	hi := float64(b) + 0.5
	if cut := 45.0 / lambda; hi > cut {
		hi = cut
	}
	if hi <= lo {
		return s
	}
	// Composite Simpson on u = ln x with an even panel count.
	const nPanels = 2048
	ulo, uhi := math.Log(lo), math.Log(hi)
	du := (uhi - ulo) / nPanels
	f := func(u float64) float64 {
		return math.Exp((1-alpha)*u - lambda*math.Exp(u))
	}
	integral := f(ulo) + f(uhi)
	for i := 1; i < nPanels; i++ {
		w := 4.0
		if i%2 == 0 {
			w = 2.0
		}
		integral += w * f(ulo+float64(i)*du)
	}
	integral *= du / 3
	return s + integral
}

// paramString renders params compactly ("alpha=2.01 delta=-0.83").
func paramString(ps []Param) string {
	out := ""
	for i, p := range ps {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%.4g", p.Name, p.Value)
	}
	return out
}
