package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConverge indicates an iterative method exhausted its iteration
// budget without meeting its tolerance.
var ErrNoConverge = errors.New("stats: failed to converge")

// GoldenSection minimizes a unimodal function on [a, b] to x-tolerance tol,
// returning the minimizing x.
func GoldenSection(f func(float64) float64, a, b, tol float64) (float64, error) {
	if b < a {
		a, b = b, a
	}
	const invPhi = 0.6180339887498949
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	if math.IsNaN(f1) || math.IsNaN(f2) {
		return math.NaN(), ErrNumeric
	}
	for i := 0; i < 300 && b-a > tol; i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return 0.5 * (a + b), nil
}

// Box is the closed box Lo[i] ≤ x[i] ≤ Hi[i] that MinimizeBox searches.
type Box struct {
	Lo, Hi [2]float64
}

// clamp projects x onto the box.
func (b Box) clamp(x [2]float64) [2]float64 {
	for i := range x {
		x[i] = math.Min(math.Max(x[i], b.Lo[i]), b.Hi[i])
	}
	return x
}

// step returns x + t·p for the largest t ≤ 1 that keeps it in the box,
// and whether a bound cut the step short. A coordinate that meets its
// bound at that t is set to the bound exactly; so are both when they
// meet their bounds at the same t, to within rounding (a step aimed at
// a corner).
func (b Box) step(x, p [2]float64) (xn [2]float64, blocked bool) {
	t := 1.0
	var reach, bound [2]float64 // the t at which each coordinate meets bound
	for i := range p {
		reach[i] = math.Inf(1)
		switch {
		case p[i] < 0:
			reach[i], bound[i] = (b.Lo[i]-x[i])/p[i], b.Lo[i]
		case p[i] > 0:
			reach[i], bound[i] = (b.Hi[i]-x[i])/p[i], b.Hi[i]
		}
		t = math.Min(t, reach[i])
	}
	for i := range p {
		xn[i] = x[i] + t*p[i]
		if reach[i] <= t*(1+1e-12) {
			xn[i] = bound[i]
			blocked = true
		}
	}
	return b.clamp(xn), blocked
}

// Jet is a 2-parameter function's value at a point with its gradient
// and Hessian there.
type Jet struct {
	F float64
	G [2]float64
	H [2][2]float64
}

// Oracle returns the objective's value, gradient and Hessian at x, from
// one pass over whatever the objective sums (DESIGN §16).
type Oracle func(x [2]float64) Jet

// finite reports whether the gradient and Hessian are finite.
func (j Jet) finite() bool {
	for i := range j.G {
		if math.IsNaN(j.G[i]) || math.IsInf(j.G[i], 0) {
			return false
		}
		for k := range j.H[i] {
			if math.IsNaN(j.H[i][k]) || math.IsInf(j.H[i][k], 0) {
				return false
			}
		}
	}
	return true
}

// Add returns j + k.
func (j Jet) Add(k Jet) Jet {
	j.F += k.F
	for i := range j.G {
		j.G[i] += k.G[i]
		for l := range j.H[i] {
			j.H[i][l] += k.H[i][l]
		}
	}
	return j
}

// Sub returns j − k.
func (j Jet) Sub(k Jet) Jet { return j.Add(k.Scale(-1)) }

// Scale returns c·j.
func (j Jet) Scale(c float64) Jet {
	j.F *= c
	for i := range j.G {
		j.G[i] *= c
		for l := range j.H[i] {
			j.H[i][l] *= c
		}
	}
	return j
}

// Log returns the jet of ln j: ∇j/j and ∇²j/j − ∇j∇jᵀ/j².
func (j Jet) Log() Jet {
	var out Jet
	out.F = math.Log(j.F)
	for i := range j.G {
		out.G[i] = j.G[i] / j.F
	}
	for i := range j.H {
		for l := range j.H[i] {
			out.H[i][l] = j.H[i][l]/j.F - out.G[i]*out.G[l]
		}
	}
	return out
}

// Div returns the jet of the quotient q = j/k: ∇q = (∇j − q∇k)/k and
// ∇²q = (∇²j − q∇²k − ∇q∇kᵀ − ∇k∇qᵀ)/k.
func (j Jet) Div(k Jet) Jet {
	var q Jet
	q.F = j.F / k.F
	for i := range j.G {
		q.G[i] = (j.G[i] - q.F*k.G[i]) / k.F
	}
	for i := range j.H {
		for l := range j.H[i] {
			q.H[i][l] = (j.H[i][l] - q.F*k.H[i][l] - q.G[i]*k.G[l] - k.G[i]*q.G[l]) / k.F
		}
	}
	return q
}

// BoxResult reports the outcome of MinimizeBox.
type BoxResult struct {
	X     [2]float64    // minimizer, inside the box
	F     float64       // objective at X
	H     [2][2]float64 // the objective's Hessian at X
	Iters int           // accepted Newton steps
	Evals int           // oracle calls, starts included
}

// The solver's constants (DESIGN §16).
const (
	// boxRelTol stops the solve once an accepted step, or the step the
	// undamped quadratic model proposes, lowers the objective by less
	// than this fraction of its magnitude: a few ulps of a float64.
	boxRelTol = 1e-15
	// boxMinMu is the first damping tried after a rejected undamped
	// step; damping grows 4× per rejection and falls 4× per accepted
	// step, back to 0 below this.
	boxMinMu = 1e-3
	// boxMaxIter caps the Newton steps of one solve.
	boxMaxIter = 200
)

// MinimizeBox minimizes the 2-parameter objective whose oracle is f over
// the closed box (DESIGN §16). It calls f once at each start (projected
// onto the box), starts from the best, and takes Newton steps built from
// the oracle's gradient and Hessian; each trial step costs one oracle
// call, and an accepted point's derivatives steer the next step:
//
//   - A coordinate on a bound whose gradient points out of the box is
//     held there (the active set). A step that would leave the box is
//     cut short where it meets a bound, and that coordinate is set to
//     the bound exactly, so an optimum on a face or a corner lands on
//     the bound exactly.
//   - When the Hessian of the free coordinates is not positive definite,
//     or a step fails to lower f, Levenberg damping (a multiple of the
//     Hessian's diagonal) is added until a step strictly lowers f.
//
// The solve stops when the relative decrease falls below boxRelTol, when
// no free coordinate remains, or when the step no longer moves x. f is
// only called inside the box. A NaN value counts as +Inf, and a trial
// point whose derivatives are not finite is rejected, so the solver
// backs away from regions where f is undefined. ErrNumeric reports that
// no start has a finite value; ErrNoConverge that the step budget ran
// out or the derivatives at the best start are not finite (the best
// point found is returned with it).
func MinimizeBox(f Oracle, box Box, starts [][2]float64) (BoxResult, error) {
	if len(starts) == 0 {
		return BoxResult{}, errors.New("stats: no start points")
	}
	for i := range box.Lo {
		if !(box.Lo[i] < box.Hi[i]) {
			return BoxResult{}, fmt.Errorf("stats: empty box [%v, %v] on axis %d", box.Lo[i], box.Hi[i], i)
		}
	}
	res := BoxResult{F: math.Inf(1)}
	eval := func(x [2]float64) Jet {
		res.Evals++
		j := f(x)
		if math.IsNaN(j.F) || math.IsInf(j.F, -1) {
			j.F = math.Inf(1)
		}
		return j
	}
	var cur Jet // the oracle at res.X
	for _, s := range starts {
		x := box.clamp(s)
		if j := eval(x); j.F < res.F {
			res.X, res.F, cur = x, j.F, j
		}
	}
	if math.IsInf(res.F, 1) {
		return res, ErrNumeric
	}
	res.H = cur.H
	if !cur.finite() {
		return res, ErrNoConverge
	}
	var carry float64 // damping carried from the last accepted step
	for iter := 0; iter < boxMaxIter; iter++ {
		x, fx, g, H := res.X, res.F, cur.G, cur.H
		var free [2]bool
		nfree := 0
		for i := range free {
			free[i] = !(x[i] == box.Lo[i] && g[i] > 0 || x[i] == box.Hi[i] && g[i] < 0)
			if free[i] {
				nfree++
			}
		}
		if nfree == 0 {
			return res, nil // a KKT corner
		}
		mu := math.Max(boxMinDamping(H, free), carry)
		accepted := false
		for try := 0; try < 64; try++ {
			p := boxSolve(g, H, free, mu)
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
				mu = math.Max(4*mu, boxMinMu)
				continue
			}
			for i := range p {
				if free[0] && free[1] && (x[i] == box.Lo[i] && p[i] < 0 || x[i] == box.Hi[i] && p[i] > 0) {
					// The coupled step leaves the box through the bound x
					// is on: hold this coordinate and move the other.
					one := free
					one[i] = false
					p = boxSolve(g, H, one, mu)
					break
				}
			}
			xn, blocked := box.step(x, p)
			if xn == x {
				return res, nil // the step is below x's resolution
			}
			if !blocked {
				d := [2]float64{xn[0] - x[0], xn[1] - x[1]}
				pred := -(g[0]*d[0] + g[1]*d[1]) -
					0.5*(H[0][0]*d[0]*d[0]+2*H[0][1]*d[0]*d[1]+H[1][1]*d[1]*d[1])
				if pred <= boxRelTol*math.Abs(fx) {
					return res, nil
				}
			}
			if jn := eval(xn); jn.F < fx && jn.finite() {
				res.X, res.F, res.H, cur = xn, jn.F, jn.H, jn
				res.Iters++
				accepted = true
				if carry = mu / 4; carry < boxMinMu {
					carry = 0
				}
				break
			}
			mu = math.Max(4*mu, boxMinMu)
		}
		if !accepted || fx-res.F <= boxRelTol*math.Abs(fx) {
			return res, nil
		}
	}
	return res, ErrNoConverge
}

// boxScale returns the Marquardt scale of axis i: |H_ii|, or 1 where the
// curvature is zero.
func boxScale(H [2][2]float64, i int) float64 {
	if d := math.Abs(H[i][i]); d > 0 {
		return d
	}
	return 1
}

// boxMinDamping returns the smallest damping μ at which H + μ·diag(scale)
// restricted to the free coordinates is safely positive definite: 0 when
// it already is, otherwise the μ that lifts its smallest scaled
// eigenvalue to 1.
func boxMinDamping(H [2][2]float64, free [2]bool) float64 {
	var lmin float64
	switch {
	case free[0] && free[1]:
		a := H[0][0] / boxScale(H, 0)
		c := H[1][1] / boxScale(H, 1)
		b := H[0][1] / math.Sqrt(boxScale(H, 0)*boxScale(H, 1))
		lmin = 0.5*(a+c) - math.Hypot(0.5*(a-c), b)
	case free[0]:
		lmin = H[0][0] / boxScale(H, 0)
	default:
		lmin = H[1][1] / boxScale(H, 1)
	}
	if lmin > 0 {
		return 0
	}
	return 1 - lmin
}

// boxSolve returns the damped Newton step −(H + μ·diag(scale))⁻¹ g on the
// free coordinates (zero on the others).
func boxSolve(g [2]float64, H [2][2]float64, free [2]bool, mu float64) (p [2]float64) {
	a := H[0][0] + mu*boxScale(H, 0)
	c := H[1][1] + mu*boxScale(H, 1)
	switch {
	case free[0] && free[1]:
		b := H[0][1]
		det := a*c - b*b
		p[0] = (-g[0]*c + g[1]*b) / det
		p[1] = (-g[1]*a + g[0]*b) / det
	case free[0]:
		p[0] = -g[0] / a
	default:
		p[1] = -g[1] / c
	}
	return p
}
