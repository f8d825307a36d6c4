package palu

import (
	"errors"
	"fmt"
	"math"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/specialfn"
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
	case c.Alpha <= 0:
		return fmt.Errorf("palu: curve alpha %v must be positive", c.Alpha)
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

// PMF returns the normalized PALU(d) probabilities for d = 1..dmax.
func (c Curve) PMF(dmax int) ([]float64, error) {
	if err := c.check(dmax); err != nil {
		return nil, err
	}
	out := make([]float64, dmax)
	if err := c.accumulate(powTable(c.Alpha, dmax), out, false); err != nil {
		return nil, err
	}
	return out, nil
}

// PooledD returns the binary-log pooled differential cumulative
// probabilities of the normalized curve over 1..dmax, the quantity plotted
// in Fig. 4.
func (c Curve) PooledD(dmax int) ([]float64, error) {
	if err := c.check(dmax); err != nil {
		return nil, err
	}
	out := make([]float64, hist.BinIndex(dmax)+1)
	if err := c.accumulate(powTable(c.Alpha, dmax), out, true); err != nil {
		return nil, err
	}
	return out, nil
}

// PooledFamily returns the pooled curves of one Fig. 4 panel: out[i] is
// Curve{alpha, delta, rs[i]}.PooledD(dmax), bit for bit. The d^{−α} table
// does not depend on r, so it is built once and shared by every curve. An
// error names the r it came from.
func PooledFamily(alpha, delta float64, rs []float64, dmax int) ([][]float64, error) {
	var pow []float64
	out := make([][]float64, len(rs))
	for i, r := range rs {
		c := Curve{Alpha: alpha, Delta: delta, R: r}
		if err := c.check(dmax); err != nil {
			return nil, fmt.Errorf("r=%v: %w", r, err)
		}
		if pow == nil {
			pow = powTable(alpha, dmax)
		}
		out[i] = make([]float64, hist.BinIndex(dmax)+1)
		if err := c.accumulate(pow, out[i], true); err != nil {
			return nil, fmt.Errorf("r=%v: %w", r, err)
		}
	}
	return out, nil
}

// check validates the curve and the degree range of PMF and PooledD.
func (c Curve) check(dmax int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if dmax < 1 {
		return errors.New("palu: dmax must be >= 1")
	}
	return nil
}

// powTable returns d^{−α} for d = 1..dmax (index 0 holds d=1).
func powTable(alpha float64, dmax int) []float64 {
	pow := make([]float64, dmax)
	for i := range pow {
		pow[i] = math.Pow(float64(i+1), -alpha)
	}
	return pow
}

// accumulate is the one evaluation of Eq. (5) behind PMF and PooledD. Over
// d = 1..len(pow) it sums z = Σ PALU(d), then makes a second pass that
// stores PALU(d)/z in out[d−1] (pooled false) or adds it to the
// binary-log bin of d (pooled true), in ascending d. PALU(d) is
// pow[d−1] + r^{(1−d)}·u/c, the same expression as Eval. The star term
// r^{(1−d)} only shrinks with d, and once it is exactly 0 every later
// PALU(d) is pow[d−1] + 0·u/c = pow[d−1] bit for bit (u/c finite), so Pow
// is not called for it again.
func (c Curve) accumulate(pow, out []float64, pooled bool) error {
	uc := c.UOverC()
	cut := len(pow) // star terms from index cut on are exactly 0
	var z float64
	for i, p := range pow {
		v := p
		if i < cut {
			s := math.Pow(c.R, float64(-i))
			v = p + s*uc
			if s == 0 && !math.IsInf(uc, 0) {
				cut = i + 1
			}
		}
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("palu: PALU(%d) = %v not a density (delta %v gives negative star weight)", i+1, v, c.Delta)
		}
		z += v
	}
	bin, upper := 0, 1 // bin i of package hist covers (2^{i−1}, 2^i]
	for i, p := range pow {
		v := p
		if i < cut {
			v = p + math.Pow(c.R, float64(-i))*uc
		}
		if !pooled {
			out[i] = v / z
			continue
		}
		if i+1 > upper {
			bin, upper = bin+1, upper<<1
		}
		out[bin] += v / z
	}
	return nil
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
