package palu

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/specialfn"
	"hybridplaw/internal/zipfmand"
)

// Curve is the one-parameter PALU degree law of Section VI, Eq. (5):
//
//	PALU(d) ∝ d^{−α} + r^{(1−d)} ((1+δ)^{−α} − 1)
//
// obtained from the reduced degree law c·d^{−α} + u·(Λ/d)^d by the
// geometric approximation (Λ/d)^d ≈ r^{(1−d)} and by aligning u/c with the
// Zipf–Mandelbrot parameters via u/c = (1+δ)^{−α} − 1.
type Curve struct {
	// Alpha and Delta are the Zipf–Mandelbrot parameters being matched.
	Alpha, Delta float64
	// R is the geometric decay base (r > 1 for decaying star terms).
	R float64
}

// Validate checks the curve parameter domain.
func (c Curve) Validate() error {
	switch {
	case math.IsNaN(c.Alpha) || math.IsNaN(c.Delta) || math.IsNaN(c.R):
		return errors.New("palu: NaN curve parameter")
	case c.Alpha <= 0 || math.IsInf(c.Alpha, 1):
		return fmt.Errorf("palu: curve alpha %v must be positive and finite", c.Alpha)
	case c.Delta <= -1:
		return fmt.Errorf("palu: curve delta %v must exceed -1", c.Delta)
	case c.R <= 1:
		return fmt.Errorf("palu: curve r %v must exceed 1", c.R)
	}
	return nil
}

// UOverC returns u/c = (1+δ)^{−α} − 1, the Section VI bridge constant.
func (c Curve) UOverC() float64 {
	return math.Pow(1+c.Delta, -c.Alpha) - 1
}

// Eval returns the unnormalized PALU(d) of Eq. (5).
func (c Curve) Eval(d int) float64 {
	return math.Pow(float64(d), -c.Alpha) + math.Pow(c.R, float64(1-d))*c.UOverC()
}

// PooledD returns the binary-log pooled differential cumulative
// probabilities of the normalized curve over 1..dmax, the quantity plotted
// in Fig. 4.
func (c Curve) PooledD(dmax int) ([]float64, error) {
	out, z, err := c.binSums(dmax)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] /= z
	}
	return out, nil
}

// binSums returns Σ PALU(d) over each binary-log bin of package hist,
// (2^{k−1}, 2^k] cut at dmax, unnormalized, and their sum z, the
// normalizer. Over a bin [a, b] of n degrees the two terms of Eq. (5)
// have closed forms:
//
//	Σ d^{−α}    = zipfmand.Model{Alpha: α}.BinSum(a, b)  (ζ(α, a) − ζ(α, b+1) on long bins)
//	Σ r^{(1−d)} = r^{(1−a)} · (1 − r^{−n}) / (1 − r^{−1})
//
// so a curve costs a few zeta evaluations per bin instead of a Pow per
// degree. The geometric ratio is taken as expm1(−n·ln r)/expm1(−ln r),
// which stays accurate as r → 1.
func (c Curve) binSums(dmax int) ([]float64, float64, error) {
	if err := c.check(dmax); err != nil {
		return nil, 0, err
	}
	power := zipfmand.Model{Alpha: c.Alpha}
	uc := c.UOverC()
	lnr := math.Log(c.R)
	den := math.Expm1(-lnr)
	out := make([]float64, hist.BinIndex(dmax)+1)
	var z float64
	for i := range out {
		a, b := hist.BinLower(i)+1, min(hist.BinUpper(i), dmax)
		star := math.Pow(c.R, float64(1-a)) * (math.Expm1(-float64(b-a+1)*lnr) / den)
		out[i] = power.BinSum(a, b) + star*uc
		z += out[i]
	}
	return out, z, nil
}

// check validates the curve and the degree range of PooledD, and
// that Eq. (5) is a density on 1..dmax: u/c is finite and no PALU(d) is
// negative. An error names the first negative degree, as a scan over
// every d would.
func (c Curve) check(dmax int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if dmax < 1 {
		return errors.New("palu: dmax must be >= 1")
	}
	uc := c.UOverC()
	if math.IsInf(uc, 0) || math.IsNaN(uc) {
		return fmt.Errorf("palu: u/c = (1+delta)^-alpha - 1 = %v is not finite (alpha %v, delta %v)", uc, c.Alpha, c.Delta)
	}
	if d := c.firstNegative(dmax, uc); d > 0 {
		return fmt.Errorf("palu: PALU(%d) = %v not a density (delta %v gives negative star weight)", d, c.Eval(d), c.Delta)
	}
	return nil
}

// firstNegative returns the smallest d in 1..dmax with Eval(d) < 0, or 0
// if there is none. Only u/c < 0 (δ > 0) can make PALU(d) negative, and
// then PALU(d) < 0 exactly when
//
//	g(d) = α·ln d − (d−1)·ln r  >  −ln|u/c|.
//
// g is concave with its maximum at d* = α/ln r, so the negative degrees
// form one run around d*. Past the degree where r^{(1−d)}·u/c rounds to 0
// no PALU(d) is negative in floating point, so the run ends by dcut, the
// last degree up to dmax with a nonzero star term. If the cut run is not empty it holds ⌊d*⌋ or ⌈d*⌉ clamped
// to [1, dcut]; g increases below d*, so the first negative degree up to
// the one found is located by bisection.
func (c Curve) firstNegative(dmax int, uc float64) int {
	if uc >= 0 {
		return 0
	}
	neg := func(d int) bool { return c.Eval(d) < 0 }
	// The star term at d = i+1 is r^{−i}·u/c, and it is not 0 at d = 1.
	dcut := sort.Search(dmax, func(i int) bool { return math.Pow(c.R, float64(-i))*uc == 0 })
	peak := c.Alpha / math.Log(c.R)
	hi := clampDegree(math.Floor(peak), dcut)
	if !neg(hi) {
		hi = clampDegree(math.Ceil(peak), dcut)
		if !neg(hi) {
			return 0
		}
	}
	return sort.Search(hi, func(i int) bool { return neg(i + 1) }) + 1
}

// clampDegree returns x as a degree in [1, dmax].
func clampDegree(x float64, dmax int) int {
	switch {
	case !(x >= 1): // also NaN
		return 1
	case x >= float64(dmax):
		return dmax
	}
	return int(x)
}

// DeltaFromObservation inverts the Section VI parameter bridge
//
//	(1+δ)^{−α} = (U/C) e^{−λp} ζ(α) p^{−α} + 1
//
// returning the Zipf–Mandelbrot offset δ implied by an observation of the
// full PALU model. C must be positive (a coreless network has no
// power-law term to align with).
func DeltaFromObservation(o Observation) (float64, error) {
	if o.Params.C <= 0 {
		return 0, errors.New("palu: delta bridge requires C > 0")
	}
	if o.P <= 0 {
		return 0, errors.New("palu: delta bridge requires p > 0")
	}
	z := specialfn.MustZeta(o.Alpha)
	rhs := (o.Params.U/o.Params.C)*math.Exp(-o.Mu())*z*math.Pow(o.P, -o.Alpha) + 1
	// (1+δ)^{−α} = rhs  →  δ = rhs^{−1/α} − 1.
	return math.Pow(rhs, -1/o.Alpha) - 1, nil
}
