package stats

import (
	"errors"
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

// NelderMeadResult reports the outcome of a Nelder–Mead minimization.
type NelderMeadResult struct {
	X     []float64 // minimizer
	F     float64   // objective at X
	Iters int
}

// NelderMead minimizes f starting from x0 with initial simplex scale step.
// It performs the standard reflect/expand/contract/shrink moves and stops
// when the simplex function-value spread falls below tol or maxIter is
// reached. NaN objective values are treated as +Inf so the simplex walks
// away from invalid regions (e.g. delta <= -1 in the ZM fit).
func NelderMead(f func([]float64) float64, x0 []float64, step, tol float64, maxIter int) (NelderMeadResult, error) {
	n := len(x0)
	if n == 0 {
		return NelderMeadResult{}, errors.New("stats: empty start point")
	}
	eval := func(x []float64) float64 {
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}
	// Build initial simplex.
	pts := make([][]float64, n+1)
	vals := make([]float64, n+1)
	for i := range pts {
		p := append([]float64(nil), x0...)
		if i > 0 {
			p[i-1] += step
		}
		pts[i] = p
		vals[i] = eval(p)
	}
	order := func() {
		// insertion sort by vals; n is tiny (2-4).
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
				pts[j], pts[j-1] = pts[j-1], pts[j]
			}
		}
	}
	centroid := make([]float64, n)
	xr := make([]float64, n)
	xe := make([]float64, n)
	xc := make([]float64, n)
	var iters int
	for iters = 0; iters < maxIter; iters++ {
		order()
		if math.Abs(vals[n]-vals[0]) <= tol*(math.Abs(vals[0])+tol) {
			break
		}
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := range centroid {
				centroid[j] += pts[i][j] / float64(n)
			}
		}
		worst := pts[n]
		for j := range xr {
			xr[j] = centroid[j] + (centroid[j] - worst[j])
		}
		fr := eval(xr)
		switch {
		case fr < vals[0]:
			for j := range xe {
				xe[j] = centroid[j] + 2*(centroid[j]-worst[j])
			}
			if fe := eval(xe); fe < fr {
				copy(pts[n], xe)
				vals[n] = fe
			} else {
				copy(pts[n], xr)
				vals[n] = fr
			}
		case fr < vals[n-1]:
			copy(pts[n], xr)
			vals[n] = fr
		default:
			ref := worst
			best := vals[n]
			if fr < vals[n] {
				ref = xr
				best = fr
			}
			for j := range xc {
				xc[j] = centroid[j] + 0.5*(ref[j]-centroid[j])
			}
			if fc := eval(xc); fc < best {
				copy(pts[n], xc)
				vals[n] = fc
			} else {
				// shrink toward best
				for i := 1; i <= n; i++ {
					for j := range pts[i] {
						pts[i][j] = pts[0][j] + 0.5*(pts[i][j]-pts[0][j])
					}
					vals[i] = eval(pts[i])
				}
			}
		}
	}
	order()
	res := NelderMeadResult{X: append([]float64(nil), pts[0]...), F: vals[0], Iters: iters}
	if math.IsInf(res.F, 1) {
		return res, ErrNumeric
	}
	if iters == maxIter {
		return res, ErrNoConverge
	}
	return res, nil
}

// MultiStartNelderMead runs NelderMead from each start point and returns
// the best converged result; if none converge it returns the best attempt
// along with ErrNoConverge.
func MultiStartNelderMead(f func([]float64) float64, starts [][]float64, step, tol float64, maxIter int) (NelderMeadResult, error) {
	if len(starts) == 0 {
		return NelderMeadResult{}, errors.New("stats: no start points")
	}
	best := NelderMeadResult{F: math.Inf(1)}
	anyOK := false
	for _, s := range starts {
		res, err := NelderMead(f, s, step, tol, maxIter)
		if err == nil {
			anyOK = true
		}
		if res.F < best.F {
			best = res
		}
	}
	if !anyOK && math.IsInf(best.F, 1) {
		return best, ErrNumeric
	}
	if !anyOK {
		return best, ErrNoConverge
	}
	return best, nil
}
