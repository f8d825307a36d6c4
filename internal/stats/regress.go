// Package stats provides the small statistics and optimization toolkit the
// reproduction needs: ordinary and weighted least squares,
// minimization (golden section in one parameter, a projected Newton
// solve over a box in two), the discrete Kolmogorov–Smirnov distance,
// bootstrap resampling, and streaming summaries.
//
// gonum is unavailable offline (repro band: "gonum limited for heavy-tail
// MLE fitting"), so everything here is implemented from scratch against the
// standard library and tested against closed-form cases.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData indicates fewer observations than model parameters.
var ErrInsufficientData = errors.New("stats: insufficient data")

// ErrNumeric indicates a numerically degenerate input (NaN/Inf or zero
// variance where positive variance is required).
var ErrNumeric = errors.New("stats: degenerate numeric input")

// LinearFit is the result of a simple linear regression y = Intercept + Slope*x.
type LinearFit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination.
	R2 float64
	// SlopeStdErr and InterceptStdErr are the usual OLS standard errors
	// (residual-variance based); they are zero when dof <= 0.
	SlopeStdErr, InterceptStdErr float64
	// N is the number of points used.
	N int
}

// OLS fits y = a + b*x by ordinary least squares.
func OLS(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, errors.New("stats: length mismatch")
	}
	w := make([]float64, len(x))
	for i := range w {
		w[i] = 1
	}
	return WeightedOLS(x, y, w)
}

// WeightedOLS fits y = a + b*x minimizing Σ w_i (y_i − a − b x_i)^2.
// Weights must be non-negative with at least two positive entries at
// distinct x locations.
func WeightedOLS(x, y, w []float64) (LinearFit, error) {
	if len(x) != len(y) || len(x) != len(w) {
		return LinearFit{}, errors.New("stats: length mismatch")
	}
	var sw, swx, swy float64
	n := 0
	for i := range x {
		if w[i] < 0 || math.IsNaN(x[i]) || math.IsNaN(y[i]) || math.IsNaN(w[i]) ||
			math.IsInf(x[i], 0) || math.IsInf(y[i], 0) || math.IsInf(w[i], 0) {
			return LinearFit{}, ErrNumeric
		}
		if w[i] == 0 {
			continue
		}
		n++
		sw += w[i]
		swx += w[i] * x[i]
		swy += w[i] * y[i]
	}
	if n < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	mx, my := swx/sw, swy/sw
	var sxx, sxy, syy float64
	for i := range x {
		if w[i] == 0 {
			continue
		}
		dx, dy := x[i]-mx, y[i]-my
		sxx += w[i] * dx * dx
		sxy += w[i] * dx * dy
		syy += w[i] * dy * dy
	}
	if sxx <= 0 {
		return LinearFit{}, ErrNumeric
	}
	b := sxy / sxx
	a := my - b*mx
	fit := LinearFit{Slope: b, Intercept: a, N: n}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1 // all residuals zero on a flat line
	}
	if dof := n - 2; dof > 0 {
		rss := syy - b*sxy
		if rss < 0 {
			rss = 0
		}
		s2 := rss / float64(dof)
		fit.SlopeStdErr = math.Sqrt(s2 / sxx)
		fit.InterceptStdErr = math.Sqrt(s2 * (1/sw + mx*mx/sxx))
	}
	return fit, nil
}

// RegressThroughOrigin fits y = b*x (no intercept) by weighted least
// squares; used by the Section IV.B estimator for u where the model term is
// proportional to the Poisson pmf.
func RegressThroughOrigin(x, y, w []float64) (slope float64, err error) {
	if len(x) != len(y) || len(x) != len(w) {
		return 0, errors.New("stats: length mismatch")
	}
	var num, den float64
	n := 0
	for i := range x {
		if w[i] < 0 || math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			return 0, ErrNumeric
		}
		if w[i] == 0 {
			continue
		}
		n++
		num += w[i] * x[i] * y[i]
		den += w[i] * x[i] * x[i]
	}
	if n < 1 {
		return 0, ErrInsufficientData
	}
	if den <= 0 {
		return 0, ErrNumeric
	}
	return num / den, nil
}

// Welford is an online mean/variance accumulator.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds a new observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 when n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the sample median of xs (which need not be sorted), or
// NaN for empty input. Used for robust cross-window aggregation where a
// single unstable window estimate must not dominate.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Quantile(sorted, 0.5)
}

// Quantile returns the q-th sample quantile (0 <= q <= 1) of a *sorted*
// slice using linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
