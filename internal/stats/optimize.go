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
// and whether a bound cut the step short. The coordinate that meets its
// bound is set to the bound exactly.
func (b Box) step(x, p [2]float64) (xn [2]float64, blocked bool) {
	t, block, bound := 1.0, -1, 0.0
	for i := range p {
		switch {
		case p[i] < 0 && (b.Lo[i]-x[i])/p[i] < t:
			t, block, bound = (b.Lo[i]-x[i])/p[i], i, b.Lo[i]
		case p[i] > 0 && (b.Hi[i]-x[i])/p[i] < t:
			t, block, bound = (b.Hi[i]-x[i])/p[i], i, b.Hi[i]
		}
	}
	for i := range p {
		xn[i] = x[i] + t*p[i]
	}
	if block >= 0 {
		xn[block] = bound
	}
	return b.clamp(xn), block >= 0
}

// BoxResult reports the outcome of MinimizeBox.
type BoxResult struct {
	X     [2]float64 // minimizer, inside the box
	F     float64    // objective at X
	Iters int        // accepted Newton steps
	Evals int        // objective evaluations, starts included
}

// The solver's constants (DESIGN §16).
const (
	// boxRelTol stops the solve once an accepted step, or the step the
	// undamped quadratic model proposes, lowers the objective by less
	// than this fraction of its magnitude: a few ulps of a float64.
	boxRelTol = 1e-15
	// boxStencilRel sizes the difference stencil so that the objective
	// moves by about this fraction of its magnitude along each axis:
	// far above rounding (ulps), far below the curvature's own scale.
	boxStencilRel = 1e-10
	// boxMinMu is the first damping tried after a rejected undamped
	// step; damping grows 4× per rejection and falls 4× per accepted
	// step, back to 0 below this.
	boxMinMu = 1e-3
	// boxMaxIter caps the Newton steps of one solve.
	boxMaxIter = 200
)

// MinimizeBox minimizes the 2-parameter objective f over the closed
// box (DESIGN §16). It evaluates f once at each start (projected onto
// the box), starts from the best, and takes Newton steps built from a
// central-difference gradient and Hessian:
//
//   - Each axis's stencil is centred at x moved inward just far enough
//     to keep it inside the box; the gradient is carried back to x
//     through the Hessian.
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
// only evaluated inside the box. A NaN value counts as +Inf, so the
// solver backs away from regions where f is undefined. ErrNumeric
// reports that no start has a finite value; ErrNoConverge that the step
// budget ran out or no finite stencil fits around the current point
// (the best point found is returned with it).
func MinimizeBox(f func(x [2]float64) float64, box Box, starts [][2]float64) (BoxResult, error) {
	if len(starts) == 0 {
		return BoxResult{}, errors.New("stats: no start points")
	}
	for i := range box.Lo {
		if !(box.Lo[i] < box.Hi[i]) {
			return BoxResult{}, fmt.Errorf("stats: empty box [%v, %v] on axis %d", box.Lo[i], box.Hi[i], i)
		}
	}
	res := BoxResult{F: math.Inf(1)}
	eval := func(x [2]float64) float64 {
		res.Evals++
		v := f(box.clamp(x))
		if math.IsNaN(v) || math.IsInf(v, -1) {
			return math.Inf(1)
		}
		return v
	}
	for _, s := range starts {
		x := box.clamp(s)
		if v := eval(x); v < res.F {
			res.X, res.F = x, v
		}
	}
	if math.IsInf(res.F, 1) {
		return res, ErrNumeric
	}
	var width, h [2]float64
	for i := range width {
		width[i] = box.Hi[i] - box.Lo[i]
		h[i] = 1e-4 * width[i]
	}
	var carry float64 // damping carried from the last accepted step
	for iter := 0; iter < boxMaxIter; iter++ {
		x, fx := res.X, res.F
		g, H, ok := boxStencil(eval, box, x, fx, h)
		if !ok {
			return res, ErrNoConverge
		}
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
		// Next stencil: the step along which f moves by boxStencilRel·|f|
		// on this Hessian's curvature.
		for i := range h {
			h[i] = 1e-4 * width[i]
			if H[i][i] > 0 {
				h[i] = math.Min(h[i], math.Max(1e-10*width[i], math.Sqrt(2*boxStencilRel*math.Abs(fx)/H[i][i])))
			}
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
			if fn := eval(xn); fn < fx {
				res.X, res.F = xn, fn
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

// boxStencil returns the central-difference gradient and Hessian of f at
// x, whose value is fx. Each axis's stencil is centred at c, x moved
// inward by at most h so that c ± h stays in the box; the gradient at x
// is g(c) + H·(x − c). A non-finite stencil value halves h, up to 19
// times; ok is false if no finite stencil was found.
func boxStencil(eval func([2]float64) float64, box Box, x [2]float64, fx float64, h [2]float64) (g [2]float64, H [2][2]float64, ok bool) {
	for try := 0; try < 20; try++ {
		if try > 0 {
			h[0], h[1] = h[0]/2, h[1]/2
		}
		var c [2]float64
		for i := range c {
			c[i] = math.Min(math.Max(x[i], box.Lo[i]+h[i]), box.Hi[i]-h[i])
			h[i] = (c[i] + h[i]) - c[i] // a step exactly representable at c
		}
		f0 := fx
		if c != x {
			f0 = eval(c)
		}
		fp0 := eval([2]float64{c[0] + h[0], c[1]})
		fm0 := eval([2]float64{c[0] - h[0], c[1]})
		f0p := eval([2]float64{c[0], c[1] + h[1]})
		f0m := eval([2]float64{c[0], c[1] - h[1]})
		fpp := eval([2]float64{c[0] + h[0], c[1] + h[1]})
		fmm := eval([2]float64{c[0] - h[0], c[1] - h[1]})
		if math.IsInf(f0+fp0+fm0+f0p+f0m+fpp+fmm, 1) {
			continue
		}
		H[0][0] = (fp0 - 2*f0 + fm0) / (h[0] * h[0])
		H[1][1] = (f0p - 2*f0 + f0m) / (h[1] * h[1])
		H[0][1] = (fpp - fp0 - f0p + 2*f0 - fm0 - f0m + fmm) / (2 * h[0] * h[1])
		H[1][0] = H[0][1]
		g[0] = (fp0-fm0)/(2*h[0]) + H[0][0]*(x[0]-c[0]) + H[0][1]*(x[1]-c[1])
		g[1] = (f0p-f0m)/(2*h[1]) + H[1][0]*(x[0]-c[0]) + H[1][1]*(x[1]-c[1])
		return g, H, true
	}
	return g, H, false
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
