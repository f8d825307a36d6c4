// Package zipfmand implements the modified Zipf–Mandelbrot model of
// Section II.B. In the standard Zipf–Mandelbrot model d is a rank index;
// the paper modifies it so d is a measured network quantity:
//
//	p(d; α, δ) ∝ 1/(d + δ)^α
//
// The offset δ lets the model fit small d accurately (in particular d = 1,
// the highest-probability point in streaming data) while α controls the
// large-d tail. The package provides the unnormalized ρ, normalized
// probabilities, binary-log-pooled differential cumulative
// distributions, and least-squares fitting of (α, δ) to observed pooled
// distributions.
package zipfmand

import (
	"errors"
	"fmt"
	"math"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/specialfn"
	"hybridplaw/internal/stats"
)

// Model is a modified Zipf–Mandelbrot distribution.
type Model struct {
	// Alpha is the power-law exponent (model tail behaviour).
	Alpha float64
	// Delta is the model offset (small-d behaviour); must exceed -1 so
	// that d + δ > 0 for every degree d >= 1.
	Delta float64
}

// Validate checks the parameter domain.
func (m Model) Validate() error {
	if math.IsNaN(m.Alpha) || math.IsNaN(m.Delta) {
		return errors.New("zipfmand: NaN parameter")
	}
	if m.Alpha <= 0 {
		return fmt.Errorf("zipfmand: alpha %v must be positive", m.Alpha)
	}
	if m.Delta <= -1 {
		return fmt.Errorf("zipfmand: delta %v must exceed -1", m.Delta)
	}
	return nil
}

// Rho returns the unnormalized model value ρ(d; α, δ) = (d+δ)^{-α}.
func (m Model) Rho(d int) float64 {
	return math.Pow(float64(d)+m.Delta, -m.Alpha)
}

// BinSum returns Σ_{d=a}^{b} (d+δ)^{-α} using Hurwitz-zeta differences
// when the range is long and α > 1 (exact: ζ(α, a+δ) − ζ(α, b+1+δ)), and
// direct summation otherwise. It is the one rule for a sum of d^{−α}-type
// terms over a degree range: the ZM normalizer and pooled bins use it, and
// so does the power term of the Fig. 4 PALU curve (palu.Curve, δ = 0).
func (m Model) BinSum(a, b int) float64 {
	if b < a {
		return 0
	}
	if m.hurwitzRange(a, b) {
		hi, err1 := specialfn.HurwitzZeta(m.Alpha, float64(a)+m.Delta)
		lo, err2 := specialfn.HurwitzZeta(m.Alpha, float64(b+1)+m.Delta)
		if err1 == nil && err2 == nil {
			return hi - lo
		}
	}
	var s float64
	for d := a; d <= b; d++ {
		s += m.Rho(d)
	}
	return s
}

// hurwitzRange reports whether BinSum sums a..b by Hurwitz-zeta
// differences.
func (m Model) hurwitzRange(a, b int) bool { return m.Alpha > 1.02 && b-a > 512 }

// BinSumJet returns BinSum(a, b) with its gradient and Hessian in
// (α, δ), by the same rule. On the Hurwitz path each end is a
// hurwitzJet; on the direct path each term t = (d+δ)^{-α} contributes
// −ln(d+δ)·t and −α·t/(d+δ) to the gradient. The value is BinSum's bit
// for bit.
func (m Model) BinSumJet(a, b int) stats.Jet {
	if b < a {
		return stats.Jet{}
	}
	if m.hurwitzRange(a, b) {
		hi, err1 := hurwitzJet(m.Alpha, float64(a)+m.Delta)
		lo, err2 := hurwitzJet(m.Alpha, float64(b+1)+m.Delta)
		if err1 == nil && err2 == nil {
			return hi.Sub(lo)
		}
	}
	return m.directJet(a, b)
}

// directJet is BinSumJet's direct path: Σ_{d=a}^{b} of t = (d+δ)^{-α}
// with ∂t/∂α = −ln(d+δ)·t, ∂t/∂δ = −α·t/(d+δ), and second derivatives
// ln²(d+δ)·t, (α·ln(d+δ) − 1)·t/(d+δ) and α(α+1)·t/(d+δ)².
func (m Model) directJet(a, b int) stats.Jet {
	var j stats.Jet
	for d := a; d <= b; d++ {
		x := float64(d) + m.Delta
		t := math.Pow(x, -m.Alpha) // Rho(d)
		l, r := math.Log(x), 1/x
		j.F += t
		j.G[0] -= l * t
		j.G[1] -= m.Alpha * r * t
		j.H[0][0] += l * l * t
		j.H[0][1] += (m.Alpha*l - 1) * r * t
		j.H[1][1] += m.Alpha * (m.Alpha + 1) * r * r * t
	}
	j.H[1][0] = j.H[0][1]
	return j
}

// hurwitzJet returns ζ(s, q) with its gradient and Hessian in (s, q):
// the s-derivatives come from Hurwitz.ZetaDerivs, and ∂ζ(s, q)/∂q =
// −s·ζ(s+1, q) gives ∂²ζ/∂s∂q = −ζ(s+1, q) − s·∂ζ(s+1, q)/∂s and
// ∂²ζ/∂q² = s(s+1)·ζ(s+2, q). Its value is HurwitzZeta(s, q) bit for bit.
func hurwitzJet(s, q float64) (stats.Jet, error) {
	h := specialfn.NewHurwitz(q)
	z, zs, zss, err := h.ZetaDerivs(s)
	if err != nil {
		return stats.Jet{}, err
	}
	z1, z1s, _, err := h.ZetaDerivs(s + 1)
	if err != nil {
		return stats.Jet{}, err
	}
	z2, _, _, err := h.ZetaDerivs(s + 2)
	if err != nil {
		return stats.Jet{}, err
	}
	zsq := -z1 - s*z1s
	return stats.Jet{
		F: z,
		G: [2]float64{zs, -s * z1},
		H: [2][2]float64{{zss, zsq}, {zsq, s * (s + 1) * z2}},
	}, nil
}

// pooledJets fills bins, one per binary-log bin over 1..dmax (bin
// layout of package hist; len(bins) = hist.BinIndex(dmax)+1), with the
// jets of PooledD's numerators, and returns the jet of the normalizer
// Σ_{d=1}^{dmax}.
func (m Model) pooledJets(dmax int, bins []stats.Jet) (z stats.Jet) {
	for i := range bins {
		bins[i] = m.BinSumJet(hist.BinLower(i)+1, min(hist.BinUpper(i), dmax))
	}
	return m.BinSumJet(1, dmax)
}

// Normalization returns Σ_{d=1}^{dmax} ρ(d; α, δ), the paper's
// finite-support normalizer.
func (m Model) Normalization(dmax int) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if dmax < 1 {
		return 0, errors.New("zipfmand: dmax must be >= 1")
	}
	return m.BinSum(1, dmax), nil
}

// PMF returns the normalized probabilities p(d; α, δ) for d = 1..dmax
// (index 0 holds d=1).
func (m Model) PMF(dmax int) ([]float64, error) {
	z, err := m.Normalization(dmax)
	if err != nil {
		return nil, err
	}
	out := make([]float64, dmax)
	for d := 1; d <= dmax; d++ {
		out[d-1] = m.Rho(d) / z
	}
	return out, nil
}

// PooledD returns the binary-log pooled differential cumulative model
// probabilities D(di; α, δ) over bins covering 1..dmax (bin layout matches
// package hist: bin 0 = {1}, bin i = (2^{i-1}, 2^i]).
func (m Model) PooledD(dmax int) ([]float64, error) {
	z, err := m.Normalization(dmax)
	if err != nil {
		return nil, err
	}
	nbins := hist.BinIndex(dmax) + 1
	out := make([]float64, nbins)
	for i := 0; i < nbins; i++ {
		lo := hist.BinLower(i) + 1
		hi := hist.BinUpper(i)
		if hi > dmax {
			hi = dmax
		}
		out[i] = m.BinSum(lo, hi) / z
	}
	return out, nil
}

// FitOptions controls Fit.
type FitOptions struct {
	// LogSpace selects least squares on log D (matching the log-log plots
	// of Fig. 3) rather than linear-space residuals. Default true.
	LogSpace bool
	// Sigma, when non-nil, supplies per-bin standard deviations used as
	// inverse weights (bins with sigma 0 get weight 1).
	Sigma []float64
	// Starts overrides the default candidate starts, each an
	// (alpha, delta) pair; the fit runs from the best of them.
	Starts [][]float64
}

// DefaultFitOptions returns the options used by the paper-style fits.
func DefaultFitOptions() FitOptions {
	return FitOptions{LogSpace: true, Starts: defaultStarts()}
}

// defaultStarts returns the candidate (α, δ) starts of the paper-style
// fits, which Fit also uses when FitOptions.Starts is nil.
func defaultStarts() [][]float64 {
	return [][]float64{{1.5, -0.5}, {2.0, 0.0}, {2.5, -0.8}, {1.2, 0.5}, {3.0, -0.3}}
}

// FitResult is a fitted modified Zipf–Mandelbrot model with diagnostics.
type FitResult struct {
	Model
	// SSE is the (weighted) sum of squared residuals at the optimum.
	SSE float64
	// KS is the Kolmogorov–Smirnov distance between the observed pooled
	// distribution and the fitted model's pooled distribution.
	KS float64
	// Iters counts the optimizer's accepted Newton steps and Evals its
	// oracle calls (stats.MinimizeBox).
	Iters, Evals int
}

// FitBox is the closed (α, δ) box Fit and the zm-mle fitter search:
// α ∈ [0.05, 12], δ ∈ [−0.999, 50].
var FitBox = stats.Box{Lo: [2]float64{0.05, -0.999}, Hi: [2]float64{12, 50}}

// Fit estimates (α, δ) from an observed pooled differential cumulative
// distribution by minimizing the squared differences to the model's pooled
// distribution ("Minimizing the differences between the observed
// differential cumulative distributions", Section II.B). dmax is the
// largest observed value of the network quantity (Eq. (1)).
func Fit(obs *hist.Pooled, dmax int, opts FitOptions) (FitResult, error) {
	if obs == nil || len(obs.D) == 0 {
		return FitResult{}, errors.New("zipfmand: empty observation")
	}
	if dmax < hist.BinLower(len(obs.D)-1)+1 {
		return FitResult{}, fmt.Errorf("zipfmand: dmax %d smaller than pooled support", dmax)
	}
	if opts.Sigma != nil && len(opts.Sigma) != len(obs.D) {
		return FitResult{}, errors.New("zipfmand: sigma length mismatch")
	}
	weights := make([]float64, len(obs.D))
	for i := range weights {
		weights[i] = 1
		if opts.Sigma != nil && opts.Sigma[i] > 0 {
			weights[i] = 1 / (opts.Sigma[i] * opts.Sigma[i])
		}
	}
	if opts.Starts == nil {
		opts.Starts = defaultStarts()
	}
	starts := make([][2]float64, len(opts.Starts))
	for i, s := range opts.Starts {
		if len(s) != 2 {
			return FitResult{}, fmt.Errorf("zipfmand: start %v is not an (alpha, delta) pair", s)
		}
		starts[i] = [2]float64{s[0], s[1]}
	}
	res, err := stats.MinimizeBox(sseOracle(obs.D, weights, dmax, opts.LogSpace), FitBox, starts)
	if err != nil {
		return FitResult{}, fmt.Errorf("zipfmand: fit failed: %w", err)
	}
	fit := FitResult{
		Model: Model{Alpha: res.X[0], Delta: res.X[1]},
		SSE:   res.F,
		Iters: res.Iters,
		Evals: res.Evals,
	}
	// KS diagnostic between observed and fitted pooled distributions.
	md, err := fit.PooledD(dmax)
	if err != nil {
		return FitResult{}, err
	}
	cdf := make([]float64, len(obs.D))
	var cum float64
	for i := range obs.D {
		if i < len(md) {
			cum += md[i]
		}
		cdf[i] = cum
	}
	fit.KS = stats.KSDiscrete(obs.D, cdf)
	return fit, nil
}

// sseOracle is Fit's objective, the weighted squared residuals
// Σ w·r² between the observed pooled distribution obs and the model's,
// with its exact Hessian 2Σ w·(∇r∇rᵀ + r·∇²r). r = ln o − ln m in log
// space (empty observed bins skipped) and o − m otherwise, with
// m = B/Z the bin's model mass from pooledJets. The oracle reuses one
// bin buffer across calls, so it is not safe for concurrent use.
func sseOracle(obs, weights []float64, dmax int, logSpace bool) stats.Oracle {
	bins := make([]stats.Jet, hist.BinIndex(dmax)+1)
	return func(x [2]float64) stats.Jet {
		z := Model{Alpha: x[0], Delta: x[1]}.pooledJets(dmax, bins)
		var f stats.Jet
		for i, o := range obs {
			var r float64
			m := bins[i].Div(z) // ∇r = −∇m in either space, with m → ln m in log space
			if logSpace {
				if o <= 0 {
					continue // empty observed bin carries no log information
				}
				if m.F <= 0 {
					return stats.Jet{F: math.NaN()}
				}
				m = m.Log()
				r = math.Log(o) - m.F
			} else {
				r = o - m.F
			}
			w := weights[i]
			f.F += w * r * r
			for k := range f.G {
				f.G[k] -= 2 * w * r * m.G[k]
				for l := range f.H[k] {
					f.H[k][l] += 2 * w * (m.G[k]*m.G[l] - r*m.H[k][l])
				}
			}
		}
		return f
	}
}

// FitHistogram pools a histogram and fits the model, returning both.
func FitHistogram(h *hist.Histogram, opts FitOptions) (FitResult, *hist.Pooled, error) {
	p, err := h.Pool()
	if err != nil {
		return FitResult{}, nil, err
	}
	res, err := Fit(p, h.MaxDegree(), opts)
	return res, p, err
}

// FitEnsemble fits the model to a cross-window ensemble's mean pooled
// distribution (the black fit line of Fig. 3); merged is the histogram
// of all the ensemble's windows, which supplies the total and dmax.
func FitEnsemble(ens *hist.Ensemble, merged *hist.Histogram, opts FitOptions) (FitResult, error) {
	if ens == nil || merged == nil || ens.Windows() == 0 {
		return FitResult{}, errors.New("zipfmand: no windows in the ensemble")
	}
	return Fit(&hist.Pooled{D: ens.Mean(), Total: merged.Total()}, merged.MaxDegree(), opts)
}
