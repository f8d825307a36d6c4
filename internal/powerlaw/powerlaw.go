// Package powerlaw implements the single-parameter discrete power-law
// baseline the paper contrasts with: Clauset–Shalizi–Newman (CSN, SIAM
// Review 2009, the paper's reference [23]) maximum-likelihood fitting of
//
//	p(d) = d^{−α} / ζ(α, xmin),  d >= xmin
//
// with xmin selected by Kolmogorov–Smirnov minimization and a parametric
// bootstrap goodness-of-fit test. Webcrawl-derived data are well described
// by this model at large d; streaming trunk data are not (the leaf and
// unattached-link excess at d = 1), which is exactly the gap the modified
// Zipf–Mandelbrot and PALU models close (experiment E-X2).
package powerlaw

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hybridplaw/internal/boot"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/specialfn"
	"hybridplaw/internal/stats"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

// Fit is a fitted discrete power law.
type Fit struct {
	// Alpha is the MLE exponent.
	Alpha float64
	// Xmin is the lower cutoff of power-law behaviour.
	Xmin int
	// KS is the Kolmogorov–Smirnov distance over the fitted region.
	KS float64
	// NTail is the number of observations with d >= Xmin.
	NTail int64
}

// FitAtXmin computes the MLE exponent for a fixed cutoff xmin over
// α ∈ [1.01, 6]: a safeguarded Newton solve of the likelihood score
// (fitAt).
func FitAtXmin(h *hist.Histogram, xmin int) (Fit, error) {
	if h == nil || h.Total() == 0 {
		return Fit{}, errors.New("powerlaw: empty histogram")
	}
	if xmin < 1 {
		return Fit{}, errors.New("powerlaw: xmin must be >= 1")
	}
	support := h.Support()
	nTail, sumLog := tailSums(h, support)
	var n int64
	var sl float64
	if i := sort.SearchInts(support, xmin); i < len(support) { // first d >= xmin
		n, sl = nTail[i], sumLog[i]
	}
	return fitAt(h, support, xmin, n, sl, math.Inf(1))
}

// tailSums returns, for every index i of the sorted support, the count
// n and Σ c·ln d of the tail d >= support[i], from one pass down the
// support. The CSN log likelihood depends on the data above a cutoff
// only through these two sums.
func tailSums(h *hist.Histogram, support []int) (nTail []int64, sumLog []float64) {
	nTail = make([]int64, len(support))
	sumLog = make([]float64, len(support))
	var n int64
	var sl float64
	for i := len(support) - 1; i >= 0; i-- {
		d := support[i]
		c := h.Count(d)
		n += c
		sl += float64(c) * math.Log(float64(d))
		nTail[i], sumLog[i] = n, sl
	}
	return nTail, sumLog
}

// The CSN exponent is searched on [alphaLo, alphaHi], and the score
// solve stops once a Newton step is below alphaTol.
const (
	alphaLo, alphaHi float64 = 1.01, 6
	alphaTol                 = 1e-9
)

// fitAt is FitAtXmin over the histogram's sorted support, given the
// tail's count nTail and Σ c·ln d (tailSums). The α it returns
// maximizes the CSN log likelihood −n·ln ζ(α, xmin) − α·Σ c·ln d
// (csnAlpha). ksBound is ksDistance's bound: the returned KS is exact
// when below it.
func fitAt(h *hist.Histogram, support []int, xmin int, nTail int64, sumLog, ksBound float64) (Fit, error) {
	if nTail < 2 {
		return Fit{}, fmt.Errorf("powerlaw: only %d observations above xmin=%d", nTail, xmin)
	}
	zeta := specialfn.NewHurwitz(float64(xmin))
	alpha, err := csnAlpha(&zeta, float64(nTail), sumLog, float64(xmin))
	if err != nil {
		return Fit{}, err
	}
	fit := Fit{Alpha: alpha, Xmin: xmin, NTail: nTail}
	fit.KS, err = ksDistance(h, support, fit, &zeta, ksBound)
	if err != nil {
		return Fit{}, err
	}
	return fit, nil
}

// csnAlpha maximizes ℓ(α) = −n·ln ζ(α, xmin) − α·sumLog over
// [alphaLo, alphaHi], where zeta is ζ(·, xmin). ℓ is concave (ln ζ is
// convex in α), so its score
//
//	g(α) = ℓ′(α) = −n·ζ′/ζ − sumLog,  g′(α) = −n·(ζ″/ζ − (ζ′/ζ)²) < 0
//
// falls through at most one root. The solve starts at the CSN
// closed-form estimate 1 + n / Σ c·ln(d/(xmin − ½)), clamped into the
// bracket, and takes Newton steps on g. The sign of g at each iterate
// shrinks the bracket to the side that holds the root. A step that
// leaves the bracket is replaced by the bracket's midpoint, or by the
// bound it crossed while g there is unknown; g pointing out of the
// bracket at a bound means the optimum lies beyond it, and the fit ends
// on the bound.
func csnAlpha(zeta *specialfn.Hurwitz, n, sumLog, xmin float64) (float64, error) {
	lo, hi := alphaLo, alphaHi
	var loSeen, hiSeen bool // g has been evaluated at lo, at hi
	alpha := alphaLo
	if start := 1 + n/(sumLog-n*math.Log(xmin-0.5)); start > alphaLo {
		alpha = math.Min(start, alphaHi)
	}
	for iter := 0; iter < 200; iter++ {
		z, dz, d2z, err := zeta.ZetaDerivs(alpha)
		if err != nil {
			return 0, err
		}
		r := dz / z
		g := -n*r - sumLog
		switch {
		case g > 0: // the root lies above alpha
			if alpha == hi {
				return hi, nil
			}
			lo, loSeen = alpha, true
		case g < 0:
			if alpha == lo {
				return lo, nil
			}
			hi, hiSeen = alpha, true
		default:
			return alpha, nil
		}
		step := g / (n * (d2z/z - r*r)) // −g/g′
		next := alpha + step
		switch {
		case next <= lo && !loSeen:
			next = lo
		case next >= hi && !hiSeen:
			next = hi
		case !(next > lo && next < hi):
			next = 0.5 * (lo + hi)
		case math.Abs(step) <= alphaTol:
			return next, nil
		}
		if hi-lo <= alphaTol {
			return 0.5 * (lo + hi), nil
		}
		alpha = next
	}
	return 0, errors.New("powerlaw: CSN score solve did not converge")
}

// ksMargin bounds how far either CDF in ksDistance may exceed 1: rounding
// in the running sums and the ~1e-12 relative error of HurwitzZeta are
// both far below it.
const ksMargin = 1e-6

// ksDistance computes the KS statistic between the empirical tail
// distribution (d >= xmin) and the fitted model. support is h.Support()
// and zeta is ζ(·, f.Xmin). The walk stops once the running maximum
// reaches bound, so a result below bound is the exact KS and any other
// result is >= bound.
func ksDistance(h *hist.Histogram, support []int, f Fit, zeta *specialfn.Hurwitz, bound float64) (float64, error) {
	z, err := zeta.Zeta(f.Alpha)
	if err != nil {
		return 0, err
	}
	if f.NTail == 0 {
		return 0, errors.New("powerlaw: empty tail")
	}
	// Every partial sum of the counts is an integer below 2^53, so this
	// is the float64 sum of the tail's counts exactly.
	total := float64(f.NTail)
	// Walk the full integer range from xmin to the max support so the
	// model CDF accumulates correctly across gaps. Both CDFs only grow and
	// stay below 1 + ksMargin, so no later support point can differ by
	// more than 1 + ksMargin − min(cum, modelCum); once maxDiff exceeds
	// that, the walk cannot change it. maxDiff never falls, so once it
	// reaches bound the result is >= bound whatever the rest would add.
	var cum, modelCum, maxDiff float64
	maxD := support[len(support)-1]
	for d := f.Xmin; d <= maxD; d++ {
		modelCum += math.Pow(float64(d), -f.Alpha) / z
		c := h.Count(d)
		if c == 0 {
			continue
		}
		cum += float64(c) / total
		if diff := math.Abs(cum - modelCum); diff > maxDiff {
			maxDiff = diff
		}
		if maxDiff >= bound || maxDiff > 1+ksMargin-math.Min(cum, modelCum) {
			break
		}
	}
	return maxDiff, nil
}

// FitScan selects xmin by scanning candidate cutoffs and choosing the one
// minimizing the KS distance (the CSN procedure). maxXmin caps the scan
// (0 means up to the 90th percentile of the support).
func FitScan(h *hist.Histogram, maxXmin int) (Fit, error) {
	if h == nil || h.Total() == 0 {
		return Fit{}, errors.New("powerlaw: empty histogram")
	}
	support := h.Support()
	if maxXmin <= 0 {
		maxXmin = support[int(0.9*float64(len(support)-1))]
		if maxXmin < 1 {
			maxXmin = 1
		}
	}
	// A candidate is kept only if its KS is below best.KS, so its KS walk
	// can stop at best.KS: a walk cut there loses, and the winner's
	// running maximum stays below the bound all the way.
	nTail, sumLog := tailSums(h, support)
	best := Fit{KS: math.Inf(1)}
	found := false
	for i, xmin := range support {
		if xmin > maxXmin {
			break
		}
		f, err := fitAt(h, support, xmin, nTail[i], sumLog[i], best.KS)
		if err != nil {
			continue // tails can become too thin; skip
		}
		if f.KS < best.KS {
			best = f
			found = true
		}
	}
	if !found {
		return Fit{}, errors.New("powerlaw: no viable xmin")
	}
	return best, nil
}

var errAlphaRange = errors.New("powerlaw: alpha must exceed 1")

// draw is one observation from the fitted discrete power law by the CSN
// inverse-CDF approximation d = round((xmin − 1/2)(1−u)^{−1/(α−1)} + 1/2);
// it consumes one rng.Float64. The caller checks f.Alpha > 1.
func (f Fit) draw(rng *xrand.RNG) int64 {
	u := rng.Float64()
	x := (float64(f.Xmin) - 0.5) * math.Pow(1-u, -1/(f.Alpha-1))
	d := int64(math.Floor(x + 0.5))
	if d < int64(f.Xmin) {
		d = int64(f.Xmin)
	}
	return d
}

// BootstrapPValue runs the CSN parametric bootstrap: synthetic datasets
// are drawn from the fitted model (tail) combined with the empirical
// distribution below xmin, refit, and the p-value is the fraction whose KS
// statistic exceeds the observed one. reps around 100 gives ±0.05
// resolution; the paper's threshold for "plausible" is p > 0.1.
//
// Replicates run on the shared boot pool (GOMAXPROCS goroutines) with
// deterministic per-replicate RNG streams, so the p-value is identical
// at every GOMAXPROCS, 1 included.
func BootstrapPValue(h *hist.Histogram, f Fit, reps int, rng *xrand.RNG) (float64, error) {
	if reps <= 0 {
		return 0, errors.New("powerlaw: reps must be positive")
	}
	// Split the data at xmin.
	var headDegrees []int
	var headWeights []float64
	var nHead, nTail int64
	for _, d := range h.Support() {
		c := h.Count(d)
		if d < f.Xmin {
			headDegrees = append(headDegrees, d)
			headWeights = append(headWeights, float64(c))
			nHead += c
		} else {
			nTail += c
		}
	}
	n := nHead + nTail
	var headAlias *xrand.Alias
	if nHead > 0 {
		var err error
		headAlias, err = xrand.NewAlias(headWeights)
		if err != nil {
			return 0, err
		}
	}
	pTail := float64(nTail) / float64(n)
	// One replicate: synthesize, refit, report whether the refit KS
	// exceeds the observed one. Refit failures (degenerate resampled
	// tails) are skipped, matching the serial behaviour.
	type verdict struct{ exceed, skipped bool }
	results, errs, err := boot.Run(reps, rng,
		func(rep int, rng *xrand.RNG) (verdict, error) {
			synth := hist.New()
			for i := int64(0); i < n; i++ {
				if rng.Float64() < pTail || headAlias == nil {
					if f.Alpha <= 1 {
						return verdict{}, errAlphaRange
					}
					if err := synth.Add(int(f.draw(rng))); err != nil {
						return verdict{}, err
					}
				} else {
					if err := synth.Add(headDegrees[headAlias.Draw(rng)]); err != nil {
						return verdict{}, err
					}
				}
			}
			sf, err := FitScan(synth, 0)
			if err != nil {
				return verdict{skipped: true}, nil
			}
			return verdict{exceed: sf.KS > f.KS}, nil
		})
	if err != nil {
		return 0, err
	}
	exceed := 0
	for rep, v := range results {
		if errs[rep] != nil {
			return 0, errs[rep]
		}
		if v.exceed {
			exceed++
		}
	}
	return float64(exceed) / float64(reps), nil
}

// Comparison contrasts the single-parameter power law with a two-parameter
// competitor (modified Zipf–Mandelbrot) in the paper's own representation:
// log-space residuals over binary-log pooled bins (the Fig. 3 axes). A KS
// comparison would be misleading here — on leaf-heavy data the MLE matches
// the dominant d=1 mass by steepening α and keeps the CDF distance small
// while the log-log tail is off by decades; the pooled log view exposes
// exactly the failure the paper describes (experiment E-X2).
//
// Deprecated: the pooled log-SSE contrast has no parameter-count penalty
// and no sampling distribution. New code should use the likelihood-based
// selection of internal/model (model.Select ranks registered families by
// AIC/BIC and model.Vuong provides the normalized log-likelihood-ratio
// test). Comparison is kept so legacy callers and the E-X2 CSV/summary
// outputs stay byte-stable.
type Comparison struct {
	// PowerLawLogSSE is the pooled log-residual SSE of the best single
	// power law (xmin=1 MLE).
	PowerLawLogSSE float64
	// CompetitorLogSSE is the same objective for the competitor model.
	CompetitorLogSSE float64
	// PowerLawAlpha is the full-support MLE exponent.
	PowerLawAlpha float64
	// TailGap is |PowerLawAlpha − tail exponent|, where the tail exponent
	// comes from the pooled slope over large-d bins. A single power law
	// describing the whole distribution must have TailGap ≈ 0; streaming
	// data force a large gap (the d=1 excess and the tail want different α).
	TailGap float64
}

// PooledLogSSE returns the sum of squared log residuals between an
// observed pooled distribution and a model pooled distribution, over bins
// where both are positive.
//
// Deprecated: retained as the diagnostic behind the legacy Comparison
// outputs; model selection should use model.Select / model.Vuong.
func PooledLogSSE(obs, model []float64) float64 {
	var sse float64
	for i := range obs {
		if obs[i] <= 0 || i >= len(model) || model[i] <= 0 {
			continue
		}
		r := math.Log(obs[i]) - math.Log(model[i])
		sse += r * r
	}
	return sse
}

// Compare fits the CSN model at xmin=1 (a single-parameter description of
// the whole distribution, as a webcrawl-era analysis would) and contrasts
// its pooled log error with a competitor's.
//
// Deprecated: see Comparison. Its α is the infinite-support (ζ) MLE at
// xmin=1; the "plaw" registry entry of internal/model fits the same
// single power law by its finite-support likelihood, where the contrast
// is available as a likelihood ratio with a significance level.
func Compare(h *hist.Histogram, competitorLogSSE float64) (Comparison, error) {
	f, err := FitAtXmin(h, 1)
	if err != nil {
		return Comparison{}, err
	}
	obs, err := h.Pool()
	if err != nil {
		return Comparison{}, err
	}
	// The pure power law is the δ=0 modified Zipf–Mandelbrot.
	model := zipfmand.Model{Alpha: f.Alpha, Delta: 0}
	md, err := model.PooledD(h.MaxDegree())
	if err != nil {
		return Comparison{}, err
	}
	cmp := Comparison{
		PowerLawLogSSE:   PooledLogSSE(obs.D, md),
		CompetitorLogSSE: competitorLogSSE,
		PowerLawAlpha:    f.Alpha,
	}
	// Tail exponent from the pooled slope (slope = 1 − α over large bins).
	var xs, ys []float64
	for i := 3; i < len(obs.D)-1; i++ {
		if obs.D[i] <= 0 {
			continue
		}
		xs = append(xs, float64(i)*math.Ln2)
		ys = append(ys, math.Log(obs.D[i]))
	}
	if len(xs) >= 3 {
		fit, ferr := stats.OLS(xs, ys)
		if ferr == nil {
			tailAlpha := 1 - fit.Slope
			cmp.TailGap = math.Abs(f.Alpha - tailAlpha)
		}
	}
	return cmp, nil
}
