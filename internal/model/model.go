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
package model

import (
	"errors"
	"fmt"
	"math"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/specialfn"
	"hybridplaw/internal/stats"
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

// cutoffExactSpan is the number of leading degrees cutoffJet sums
// exactly.
const cutoffExactSpan = 4096

// cutoffLogs returns ln d for d = a..min(b, a+cutoffExactSpan−1), the
// logarithms of cutoffJet's exact head; 1 ≤ a ≤ b.
func cutoffLogs(a, b int) []float64 {
	logs := make([]float64, min(b-a+1, cutoffExactSpan))
	for i := range logs {
		logs[i] = math.Log(float64(a + i))
	}
	return logs
}

// cutoffJet returns Σ_{d=a}^{b} d^{-α} e^{-λd}, the normalizer of the
// truncated (exponential-cutoff) power law, with its gradient and
// Hessian in (α, λ); logs is cutoffLogs(a, b), taken once per fit, or
// nil for a one-off sum, which takes each ln d as it goes. The head of
// the range is summed exactly; the smooth remainder is integrated in
// log space by composite Simpson (substituting u = ln x turns the sum's
// integral approximation into ∫ exp((1−α)u − λe^u) du, well-conditioned
// for any α and λ >= 0). Each term t, head or Simpson node, carries the
// weights ln d and d of its derivatives: ∂t/∂α = −ln d·t,
// ∂t/∂λ = −d·t. A λ = 0 law is summed by zipfmand's BinSum rule
// instead, which also gives its α-derivatives; its λ-derivatives are
// the head-and-tail sums' at λ = 0, the limit from inside the box.
func cutoffJet(alpha, lambda float64, logs []float64, a, b int) stats.Jet {
	var j stats.Jet
	exactEnd := min(b, a+cutoffExactSpan-1)
	for d := a; d <= exactEnd; d++ {
		x := float64(d)
		var l float64
		if i := d - a; i < len(logs) {
			l = logs[i]
		} else {
			l = math.Log(x)
		}
		t := math.Exp(-alpha*l - lambda*x)
		j.F += t
		j.G[0] -= l * t
		j.G[1] -= x * t
		j.H[0][0] += l * l * t
		j.H[0][1] += l * x * t
		j.H[1][1] += x * x * t
	}
	if exactEnd < b {
		j = j.Add(cutoffTail(alpha, lambda, float64(exactEnd)+0.5, float64(b)+0.5))
	}
	j.H[1][0] = j.H[0][1]
	if lambda == 0 {
		z := zipfmand.Model{Alpha: alpha}.BinSumJet(a, b)
		j.F, j.G[0], j.H[0][0] = z.F, z.G[0], z.H[0][0]
	}
	return j
}

// cutoffTail is cutoffJet's Simpson remainder over (lo, hi), cut where
// λx passes 45 and the terms are negligible.
func cutoffTail(alpha, lambda, lo, hi float64) stats.Jet {
	if cut := 45.0 / lambda; hi > cut {
		hi = cut
	}
	if hi <= lo {
		return stats.Jet{}
	}
	// Composite Simpson on u = ln x with an even panel count.
	const nPanels = 2048
	ulo, uhi := math.Log(lo), math.Log(hi)
	du := (uhi - ulo) / nPanels
	var j stats.Jet
	node := func(u, w float64) {
		x := math.Exp(u)
		t := w * math.Exp((1-alpha)*u-lambda*x)
		j.F += t
		j.G[0] -= u * t
		j.G[1] -= x * t
		j.H[0][0] += u * u * t
		j.H[0][1] += u * x * t
		j.H[1][1] += x * x * t
	}
	node(ulo, 1)
	node(uhi, 1)
	for i := 1; i < nPanels; i++ {
		w := 4.0
		if i%2 == 0 {
			w = 2.0
		}
		node(ulo+float64(i)*du, w)
	}
	return j.Scale(du / 3)
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
