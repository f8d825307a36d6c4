package model

// The model families. Each wraps its parameters (and, for the fitted
// wrappers, the legacy fit diagnostics) behind the Model interface with
// the package-wide finite-support conventions of model.go.

import (
	"errors"
	"fmt"
	"math"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/powerlaw"
	"hybridplaw/internal/zipfmand"
)

// ZM is the modified Zipf–Mandelbrot family p(d) ∝ (d+δ)^{-α}
// (Section II.B), wrapping zipfmand.Model.
type ZM struct {
	ZM zipfmand.Model
}

// Name implements Model.
func (m *ZM) Name() string { return "zm" }

// Params implements Model.
func (m *ZM) Params() []Param {
	return []Param{{"alpha", m.ZM.Alpha}, {"delta", m.ZM.Delta}}
}

// PMF implements Model via zipfmand.Model.PMF.
func (m *ZM) PMF(dmax int) ([]float64, error) { return m.ZM.PMF(dmax) }

// LogLik implements Model: Σ n(d)(−α ln(d+δ)) − n ln Z over the observed
// support, with Z the 1..dmax normalizer.
func (m *ZM) LogLik(h *hist.Histogram) (float64, error) {
	if err := validateHist(h); err != nil {
		return 0, err
	}
	z, err := m.ZM.Normalization(h.MaxDegree())
	if err != nil {
		return 0, err
	}
	logZ := math.Log(z)
	ll := logLikOverSupport(h, func(d int) float64 {
		return -m.ZM.Alpha*math.Log(float64(d)+m.ZM.Delta) - logZ
	})
	return ll, nil
}

// PowerLaw is the pure discrete power law p(d) ∝ d^{-α} for d >= Xmin,
// truncated and renormalized to the finite support — with Xmin = 1 it is
// the single-parameter whole-distribution description a webcrawl-era
// analysis would fit (the δ=0 modified Zipf–Mandelbrot).
type PowerLaw struct {
	Alpha float64
	Xmin  int
}

// Name implements Model.
func (m *PowerLaw) Name() string { return "plaw" }

// Params implements Model.
func (m *PowerLaw) Params() []Param {
	return []Param{{"alpha", m.Alpha}, {"xmin", float64(m.Xmin)}}
}

// PMF implements Model.
func (m *PowerLaw) PMF(dmax int) ([]float64, error) {
	if dmax < m.Xmin {
		return nil, fmt.Errorf("model: dmax %d below xmin %d", dmax, m.Xmin)
	}
	z := zipfmand.Model{Alpha: m.Alpha}.BinSum(m.Xmin, dmax)
	out := make([]float64, dmax)
	for d := m.Xmin; d <= dmax; d++ {
		out[d-1] = math.Pow(float64(d), -m.Alpha) / z
	}
	return out, nil
}

// LogLik implements Model. Observations below Xmin make it -Inf.
func (m *PowerLaw) LogLik(h *hist.Histogram) (float64, error) {
	if err := validateHist(h); err != nil {
		return 0, err
	}
	dmax := h.MaxDegree()
	if dmax < m.Xmin {
		return math.Inf(-1), nil
	}
	logZ := math.Log(zipfmand.Model{Alpha: m.Alpha}.BinSum(m.Xmin, dmax))
	ll := logLikOverSupport(h, func(d int) float64 {
		if d < m.Xmin {
			return math.Inf(-1)
		}
		return -m.Alpha*math.Log(float64(d)) - logZ
	})
	return ll, nil
}

// CSN is the Clauset–Shalizi–Newman semiparametric model: the empirical
// distribution below the scanned cutoff Xmin combined with the MLE power
// law on the tail — exactly the construction powerlaw.BootstrapPValue
// samples synthetic datasets from. Its parameter count charges the
// empirical head honestly (one cell probability per head degree plus the
// tail exponent and cutoff).
type CSN struct {
	// Fit is the untouched legacy powerlaw.FitScan result.
	Fit powerlaw.Fit
	// headDegrees/headProbs hold the empirical distribution below Xmin;
	// probabilities are unconditional (they sum to 1 − PTail).
	headDegrees []int
	headProbs   []float64
	// PTail is the probability mass at or above Xmin.
	PTail float64
}

// NewCSN builds the semiparametric model from a scanned fit and the
// histogram it was fitted to.
func NewCSN(f powerlaw.Fit, h *hist.Histogram) (*CSN, error) {
	if err := validateHist(h); err != nil {
		return nil, err
	}
	m := &CSN{Fit: f}
	total := float64(h.Total())
	var headMass float64
	for _, d := range h.Support() {
		if d >= f.Xmin {
			break
		}
		p := float64(h.Count(d)) / total
		m.headDegrees = append(m.headDegrees, d)
		m.headProbs = append(m.headProbs, p)
		headMass += p
	}
	m.PTail = 1 - headMass
	return m, nil
}

// HeadCells returns the number of empirical head cells (degrees below
// Xmin carrying probability mass).
func (m *CSN) HeadCells() int { return len(m.headDegrees) }

// Name implements Model.
func (m *CSN) Name() string { return "csn" }

// Params implements Model.
func (m *CSN) Params() []Param {
	return []Param{
		{"alpha", m.Fit.Alpha},
		{"xmin", float64(m.Fit.Xmin)},
		{"ptail", m.PTail},
	}
}

// PMF implements Model: empirical head cells below Xmin, the
// renormalized power-law tail above.
func (m *CSN) PMF(dmax int) ([]float64, error) {
	if dmax < m.Fit.Xmin {
		return nil, fmt.Errorf("model: dmax %d below xmin %d", dmax, m.Fit.Xmin)
	}
	out := make([]float64, dmax)
	for i, d := range m.headDegrees {
		if d <= dmax {
			out[d-1] = m.headProbs[i]
		}
	}
	z := zipfmand.Model{Alpha: m.Fit.Alpha}.BinSum(m.Fit.Xmin, dmax)
	for d := m.Fit.Xmin; d <= dmax; d++ {
		out[d-1] = m.PTail * math.Pow(float64(d), -m.Fit.Alpha) / z
	}
	return out, nil
}

// LogLik implements Model.
func (m *CSN) LogLik(h *hist.Histogram) (float64, error) {
	if err := validateHist(h); err != nil {
		return 0, err
	}
	dmax := h.MaxDegree()
	if dmax < m.Fit.Xmin {
		return math.Inf(-1), nil
	}
	head := make(map[int]float64, len(m.headDegrees))
	for i, d := range m.headDegrees {
		head[d] = m.headProbs[i]
	}
	logZ := math.Log(zipfmand.Model{Alpha: m.Fit.Alpha}.BinSum(m.Fit.Xmin, dmax))
	logPTail := math.Log(m.PTail)
	ll := logLikOverSupport(h, func(d int) float64 {
		if d < m.Fit.Xmin {
			return math.Log(head[d]) // log 0 = -Inf for unobserved head cells
		}
		return logPTail - m.Fit.Alpha*math.Log(float64(d)) - logZ
	})
	return ll, nil
}

// PALU is the Section IV.B reduced degree law
// ratio(d) = c·d^{-α} + u·μ^d/d! + l·δ_{d,1}-style (Eqs. (2)-(4)),
// renormalized to a proper distribution over the finite support. Degrees
// where the estimated law goes non-positive carry zero probability.
type PALU struct {
	Constants palu.Constants
}

// Name implements Model.
func (m *PALU) Name() string { return "palu" }

// Params implements Model.
func (m *PALU) Params() []Param {
	k := m.Constants
	return []Param{
		{"alpha", k.Alpha}, {"c", k.C}, {"l", k.L}, {"u", k.U}, {"mu", k.Mu},
	}
}

// ratioAt evaluates the degree law, clamping negatives to zero.
func (m *PALU) ratioAt(d int) float64 {
	r, err := m.Constants.DegreeRatio(d)
	if err != nil || r < 0 || math.IsNaN(r) {
		return 0
	}
	return r
}

// normalization returns Σ_{d=1}^{dmax} max(ratio(d), 0) in closed form:
// the degree-1 mass plus the power-law and Poisson tails.
func (m *PALU) normalization(dmax int) (float64, error) {
	if dmax < 1 {
		return 0, errors.New("model: dmax must be >= 1")
	}
	k := m.Constants
	z := m.ratioAt(1)
	if dmax > 1 {
		if k.C > 0 {
			z += k.C * zipfmand.Model{Alpha: k.Alpha}.BinSum(2, dmax)
		}
		if k.U > 0 && k.Mu > 0 {
			z += k.U * poissonSum(k.Mu, 2, dmax)
		}
	}
	if z <= 0 || math.IsNaN(z) || math.IsInf(z, 0) {
		return 0, fmt.Errorf("model: degenerate PALU normalization %v", z)
	}
	return z, nil
}

// PMF implements Model.
func (m *PALU) PMF(dmax int) ([]float64, error) {
	z, err := m.normalization(dmax)
	if err != nil {
		return nil, err
	}
	out := make([]float64, dmax)
	for d := 1; d <= dmax; d++ {
		out[d-1] = m.ratioAt(d) / z
	}
	return out, nil
}

// LogLik implements Model.
func (m *PALU) LogLik(h *hist.Histogram) (float64, error) {
	if err := validateHist(h); err != nil {
		return 0, err
	}
	z, err := m.normalization(h.MaxDegree())
	if err != nil {
		return 0, err
	}
	logZ := math.Log(z)
	ll := logLikOverSupport(h, func(d int) float64 {
		return math.Log(m.ratioAt(d)) - logZ
	})
	return ll, nil
}

// stdNormalCDFDiff returns Φ(b) − Φ(a) for a <= b in whichever
// complementary form avoids catastrophic cancellation: far in the upper
// tail both Φ values round to 1 and the naive difference vanishes, while
// the erfc forms keep the ~1e-300 cell masses the lognormal likelihood
// needs at large degrees.
func stdNormalCDFDiff(a, b float64) float64 {
	if a > 0 {
		return 0.5 * (math.Erfc(a/math.Sqrt2) - math.Erfc(b/math.Sqrt2))
	}
	return 0.5 * (math.Erfc(-b/math.Sqrt2) - math.Erfc(-a/math.Sqrt2))
}

// Lognormal is the discrete lognormal family defined by interval
// probabilities of the continuous lognormal:
//
//	p(d) ∝ Φ((ln(d+½)−μ)/σ) − Φ((ln(d−½)−μ)/σ)
//
// the standard discretization in heavy-tail model comparisons; the
// closed form keeps every evaluation O(1) per degree.
type Lognormal struct {
	Mu, Sigma float64
}

// Name implements Model.
func (m *Lognormal) Name() string { return "lognormal" }

// Params implements Model.
func (m *Lognormal) Params() []Param {
	return []Param{{"mu", m.Mu}, {"sigma", m.Sigma}}
}

// cellMass returns the unnormalized interval probability of degree d.
func (m *Lognormal) cellMass(d int) float64 {
	lo := (math.Log(float64(d)-0.5) - m.Mu) / m.Sigma
	hi := (math.Log(float64(d)+0.5) - m.Mu) / m.Sigma
	return stdNormalCDFDiff(lo, hi)
}

// normalization returns the total mass over 1..dmax.
func (m *Lognormal) normalization(dmax int) (float64, error) {
	if dmax < 1 {
		return 0, errors.New("model: dmax must be >= 1")
	}
	if m.Sigma <= 0 || math.IsNaN(m.Mu) {
		return 0, fmt.Errorf("model: invalid lognormal (mu=%v sigma=%v)", m.Mu, m.Sigma)
	}
	z := stdNormalCDFDiff((math.Log(0.5)-m.Mu)/m.Sigma,
		(math.Log(float64(dmax)+0.5)-m.Mu)/m.Sigma)
	if z <= 0 {
		return 0, errors.New("model: lognormal mass vanishes on support")
	}
	return z, nil
}

// PMF implements Model.
func (m *Lognormal) PMF(dmax int) ([]float64, error) {
	z, err := m.normalization(dmax)
	if err != nil {
		return nil, err
	}
	out := make([]float64, dmax)
	for d := 1; d <= dmax; d++ {
		out[d-1] = m.cellMass(d) / z
	}
	return out, nil
}

// LogLik implements Model.
func (m *Lognormal) LogLik(h *hist.Histogram) (float64, error) {
	if err := validateHist(h); err != nil {
		return 0, err
	}
	z, err := m.normalization(h.MaxDegree())
	if err != nil {
		return 0, err
	}
	logZ := math.Log(z)
	ll := logLikOverSupport(h, func(d int) float64 {
		return math.Log(m.cellMass(d)) - logZ
	})
	return ll, nil
}

// TruncPowerLaw is the truncated power law p(d) ∝ d^{-α} e^{-λd}
// (power law with exponential cutoff), the heavy-tail alternative the
// mixed-fractal traffic literature carries alongside the pure law.
// λ = 0 degenerates to the pure power law.
type TruncPowerLaw struct {
	Alpha, Lambda float64
}

// Name implements Model.
func (m *TruncPowerLaw) Name() string { return "truncplaw" }

// Params implements Model.
func (m *TruncPowerLaw) Params() []Param {
	return []Param{{"alpha", m.Alpha}, {"lambda", m.Lambda}}
}

// normalization returns Σ_{1..dmax} d^{-α} e^{-λd}.
func (m *TruncPowerLaw) normalization(dmax int) (float64, error) {
	if dmax < 1 {
		return 0, errors.New("model: dmax must be >= 1")
	}
	if m.Lambda < 0 || math.IsNaN(m.Alpha) {
		return 0, fmt.Errorf("model: invalid cutoff law (alpha=%v lambda=%v)", m.Alpha, m.Lambda)
	}
	z := cutoffSum(m.Alpha, m.Lambda, 1, dmax)
	if z <= 0 || math.IsInf(z, 0) {
		return 0, fmt.Errorf("model: degenerate cutoff normalization %v", z)
	}
	return z, nil
}

// PMF implements Model.
func (m *TruncPowerLaw) PMF(dmax int) ([]float64, error) {
	z, err := m.normalization(dmax)
	if err != nil {
		return nil, err
	}
	out := make([]float64, dmax)
	for d := 1; d <= dmax; d++ {
		out[d-1] = math.Exp(-m.Alpha*math.Log(float64(d))-m.Lambda*float64(d)) / z
	}
	return out, nil
}

// LogLik implements Model.
func (m *TruncPowerLaw) LogLik(h *hist.Histogram) (float64, error) {
	if err := validateHist(h); err != nil {
		return 0, err
	}
	z, err := m.normalization(h.MaxDegree())
	if err != nil {
		return 0, err
	}
	logZ := math.Log(z)
	ll := logLikOverSupport(h, func(d int) float64 {
		return -m.Alpha*math.Log(float64(d)) - m.Lambda*float64(d) - logZ
	})
	return ll, nil
}
