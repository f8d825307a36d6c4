package model

// The Fitter registry: every fitting procedure in the repository behind
// one entry point. The zm/csn/palu fitters delegate to the package
// estimators (zipfmand.Fit, powerlaw.FitScan, estimate.Estimate), so
// registry-routed fits are numerically identical to direct calls; csn's
// FitScan picks xmin by KS and solves the likelihood score for α by
// safeguarded Newton steps at each candidate. The zm-mle, lognormal and
// truncplaw fitters are maximum likelihood on the shared finite-support
// log-likelihood, each one projected Newton solve (stats.MinimizeBox)
// over the box where its family is defined, started from the best of a
// short fixed candidate list; plaw maximizes the same likelihood over
// its one parameter by golden section. Each fitter fits alone, so FitAll
// is a plain loop over Fit.

import (
	"errors"
	"fmt"
	"math"

	"hybridplaw/internal/estimate"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/powerlaw"
	"hybridplaw/internal/stats"
	"hybridplaw/internal/zipfmand"
)

// FitResult is a fitted model with its likelihood-based selection
// statistics and family-specific diagnostics.
type FitResult struct {
	// Fitter is the registry name that produced the fit.
	Fitter string
	// Model is the fitted distribution.
	Model Model
	// K is the number of free parameters charged by AIC/BIC.
	K int
	// N is the number of observations behind the likelihood.
	N int64
	// LogLik is the finite-support multinomial log-likelihood; -Inf when
	// the model excludes observed degrees.
	LogLik float64
	// AIC is 2K − 2·LogLik; BIC is K·ln N − 2·LogLik.
	AIC, BIC float64
	// Diag carries family-specific diagnostics under stable keys
	// ("sse", "ks", "xmin", "tail_r2", ...).
	Diag map[string]float64
}

// Comparable reports whether the fit participates in likelihood ranking
// (finite log-likelihood).
func (r FitResult) Comparable() bool {
	return !math.IsInf(r.LogLik, 0) && !math.IsNaN(r.LogLik)
}

// ParamString renders the fitted parameters compactly.
func (r FitResult) ParamString() string { return paramString(r.Model.Params()) }

// Fitter fits one model family to a degree histogram.
type Fitter interface {
	// Name is the unique registry key ("zm", "csn", ...).
	Name() string
	// Fit runs the procedure.
	Fit(h *hist.Histogram) (FitResult, error)
}

// finish fills the shared likelihood statistics of a fit.
func finish(name string, m Model, k int, h *hist.Histogram, diag map[string]float64) (FitResult, error) {
	ll, err := m.LogLik(h)
	if err != nil {
		return FitResult{}, fmt.Errorf("model: %s log-likelihood: %w", name, err)
	}
	n := h.Total()
	return FitResult{
		Fitter: name,
		Model:  m,
		K:      k,
		N:      n,
		LogLik: ll,
		AIC:    2*float64(k) - 2*ll,
		BIC:    float64(k)*math.Log(float64(n)) - 2*ll,
		Diag:   diag,
	}, nil
}

// Registry is an ordered, name-unique fitter collection. Registration
// order is the canonical presentation order. Build once at startup;
// building is not safe for concurrent use, reading is.
type Registry struct {
	order   []string
	byName  map[string]Fitter
	metrics *Metrics
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Fitter)}
}

// Register validates and adds a fitter.
func (r *Registry) Register(f Fitter) error {
	if f == nil || f.Name() == "" {
		return errors.New("model: fitter must have a name")
	}
	if _, ok := r.byName[f.Name()]; ok {
		return fmt.Errorf("model: duplicate fitter %q", f.Name())
	}
	r.byName[f.Name()] = f
	r.order = append(r.order, f.Name())
	return nil
}

// MustRegister registers, panicking on error (for static tables).
func (r *Registry) MustRegister(f Fitter) {
	if err := r.Register(f); err != nil {
		panic(err)
	}
}

// Instrument times FitAll's fits with m (nil: untimed) and returns the
// registry.
func (r *Registry) Instrument(m *Metrics) *Registry {
	r.metrics = m
	return r
}

// Lookup returns the named fitter.
func (r *Registry) Lookup(name string) (Fitter, bool) {
	f, ok := r.byName[name]
	return f, ok
}

// Names returns every fitter name in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// FitAll runs the named fitters (all registered, in order, when names is
// empty) against the histogram. results and errs are parallel to the
// resolved name list: a failed fit leaves a zero FitResult and its error
// so one thin tail does not hide the other families. An unknown name is
// an immediate error. An instrumented registry times each fit.
func (r *Registry) FitAll(h *hist.Histogram, names ...string) (results []FitResult, errs []error, err error) {
	if len(names) == 0 {
		names = r.Names()
	}
	results = make([]FitResult, len(names))
	errs = make([]error, len(names))
	for i, name := range names {
		f, ok := r.Lookup(name)
		if !ok {
			return nil, nil, fmt.Errorf("model: unknown fitter %q (have: %v)", name, r.Names())
		}
		results[i], errs[i] = r.metrics.timeFit(name, func() (FitResult, error) { return f.Fit(h) })
	}
	return results, errs, nil
}

// Default returns a fresh registry holding every built-in fitter in
// canonical order: zm, zm-mle, csn, plaw, palu, lognormal, truncplaw.
func Default() *Registry {
	r := NewRegistry()
	r.MustRegister(ZMFitter{})
	r.MustRegister(ZMMLEFitter{})
	r.MustRegister(CSNFitter{})
	r.MustRegister(PowerLawFitter{})
	r.MustRegister(PALUFitter{})
	r.MustRegister(LognormalFitter{})
	r.MustRegister(TruncPowerLawFitter{})
	return r
}

// ZMFitter wraps the Section II.B least-squares fit (zipfmand.Fit)
// under zipfmand.DefaultFitOptions — numerically identical to the
// legacy path.
type ZMFitter struct{}

// Name implements Fitter.
func (ZMFitter) Name() string { return "zm" }

// Fit implements Fitter.
func (f ZMFitter) Fit(h *hist.Histogram) (FitResult, error) {
	return f.fit(h, zipfmand.DefaultFitOptions())
}

// fit is Fit under opts; tests fit from one start at a time through it.
func (f ZMFitter) fit(h *hist.Histogram, opts zipfmand.FitOptions) (FitResult, error) {
	if err := validateHist(h); err != nil {
		return FitResult{}, err
	}
	fr, _, err := zipfmand.FitHistogram(h, opts)
	if err != nil {
		return FitResult{}, err
	}
	m := &ZM{ZM: fr.Model}
	return finish(f.Name(), m, 2, h, map[string]float64{
		"sse": fr.SSE, "ks": fr.KS,
		"iters": float64(fr.Iters), "evals": float64(fr.Evals),
	})
}

// ZMMLEFitter fits the modified Zipf–Mandelbrot family by maximum
// likelihood. The Section II.B least-squares fit weights pooled bins
// equally in log space (the Fig. 3 plotting objective), which can give
// up large amounts of likelihood at the mass-dominant low degrees;
// likelihood-based selection should judge each family by its best
// likelihood, so this fitter maximizes the multinomial likelihood
// directly, over zipfmand.FitBox, from the best of three fixed starts.
// Registered as "zm-mle"; the model family is still "zm".
type ZMMLEFitter struct{}

// Name implements Fitter.
func (ZMMLEFitter) Name() string { return "zm-mle" }

// Fit implements Fitter.
func (f ZMMLEFitter) Fit(h *hist.Histogram) (FitResult, error) {
	if err := validateHist(h); err != nil {
		return FitResult{}, err
	}
	return f.problem(h).fit(f.Name(), h)
}

// problem is zm-mle's likelihood problem on h: (α, δ) over
// zipfmand.FitBox.
func (ZMMLEFitter) problem(h *hist.Histogram) mleProblem {
	return mleProblem{
		box:    zipfmand.FitBox,
		starts: [][2]float64{{1.5, -0.5}, {2.0, 0.0}, {2.5, -0.8}},
		model: func(x [2]float64) Model {
			return &ZM{ZM: zipfmand.Model{Alpha: x[0], Delta: x[1]}}
		},
		oracle: zmNegLogLik(newSupport(h)),
	}
}

// support is a histogram's observed degrees and their counts as
// float64, read once per fit.
type support struct {
	deg, count []float64
	n          float64
	dmax       int
}

func newSupport(h *hist.Histogram) support {
	ds := h.Support()
	s := support{
		deg: make([]float64, len(ds)), count: make([]float64, len(ds)),
		n: float64(h.Total()), dmax: h.MaxDegree(),
	}
	for i, d := range ds {
		s.deg[i], s.count[i] = float64(d), float64(h.Count(d))
	}
	return s
}

// zmNegLogLik is zm-mle's oracle: −log L = Σ n(d)·(α·ln(d+δ) + ln Z)
// over the support. The data terms contribute Σ n·ln(d+δ) and α·Σ n/(d+δ)
// to the gradient; ln Z's jet comes from zipfmand.Model.BinSumJet. The
// value is −(*ZM).LogLik bit for bit.
func zmNegLogLik(s support) stats.Oracle {
	return func(x [2]float64) stats.Jet {
		alpha := x[0]
		z := zipfmand.Model{Alpha: alpha, Delta: x[1]}.BinSumJet(1, s.dmax).Log()
		var ll, sl, sr, srr float64
		for i, d := range s.deg {
			l, r := math.Log(d+x[1]), 1/(d+x[1])
			c := s.count[i]
			ll += c * (-alpha*l - z.F)
			sl += c * l
			sr += c * r
			srr += c * r * r
		}
		j := z.Scale(s.n)
		j.F = -ll
		j.G[0] += sl
		j.G[1] += alpha * sr
		j.H[0][1] += sr
		j.H[1][0] += sr
		j.H[1][1] -= alpha * srr
		return j
	}
}

// mleProblem is one 2-parameter maximum-likelihood fit: the family
// model(x), the oracle of its negated log-likelihood on the histogram,
// the box where it is fitted and the candidate starts.
type mleProblem struct {
	box    stats.Box
	starts [][2]float64
	model  func(x [2]float64) Model
	oracle stats.Oracle
}

// fit maximizes the log-likelihood on h, one stats.MinimizeBox solve
// from the best of the starts, and finishes the fit at the optimum.
func (p mleProblem) fit(name string, h *hist.Histogram) (FitResult, error) {
	res, err := stats.MinimizeBox(p.oracle, p.box, p.starts)
	if err != nil {
		return FitResult{}, fmt.Errorf("model: %s fit failed: %w", name, err)
	}
	return finish(name, p.model(res.X), 2, h, map[string]float64{
		"iters": float64(res.Iters), "evals": float64(res.Evals),
	})
}

// CSNFitter wraps the Clauset–Shalizi–Newman procedure
// (powerlaw.FitScan: KS-optimal xmin, MLE exponent by a Newton solve of
// the likelihood score) — numerically identical to calling FitScan
// with the default 90th-percentile cap on the xmin scan.
type CSNFitter struct{}

// Name implements Fitter.
func (CSNFitter) Name() string { return "csn" }

// Fit implements Fitter.
func (f CSNFitter) Fit(h *hist.Histogram) (FitResult, error) {
	if err := validateHist(h); err != nil {
		return FitResult{}, err
	}
	fit, err := powerlaw.FitScan(h, 0)
	if err != nil {
		return FitResult{}, err
	}
	m, err := NewCSN(fit, h)
	if err != nil {
		return FitResult{}, err
	}
	// Charge the exponent, the cutoff, and the empirical head cells (the
	// sum-to-one constraint cancels the tail-mass parameter).
	k := 2 + m.HeadCells()
	return finish(f.Name(), m, k, h, map[string]float64{
		"ks": fit.KS, "xmin": float64(fit.Xmin), "ntail": float64(fit.NTail),
	})
}

// PowerLawFitter is the single-parameter whole-distribution power law
// p(d) ∝ d^{−α} on 1..dmax: the finite-support maximum-likelihood α,
// found by golden section over truncplaw's α range [0.05, 12], so plaw
// is truncplaw's λ = 0 face fitted on its own.
type PowerLawFitter struct{}

// Name implements Fitter.
func (PowerLawFitter) Name() string { return "plaw" }

// Fit implements Fitter. The log-likelihood −α·Σc·ln d − n·ln Z(α),
// Z(α) = Σ_{d=1}^{dmax} d^{−α}, depends on the data only through n and
// Σc·ln d, which are summed once.
func (f PowerLawFitter) Fit(h *hist.Histogram) (FitResult, error) {
	if err := validateHist(h); err != nil {
		return FitResult{}, err
	}
	var sumLog float64
	for _, d := range h.Support() {
		sumLog += float64(h.Count(d)) * math.Log(float64(d))
	}
	n, dmax := float64(h.Total()), h.MaxDegree()
	negLL := func(alpha float64) float64 {
		return alpha*sumLog + n*math.Log(zipfmand.Model{Alpha: alpha}.BinSum(1, dmax))
	}
	alpha, err := stats.GoldenSection(negLL, 0.05, 12, 1e-8)
	if err != nil {
		return FitResult{}, fmt.Errorf("model: %s fit failed: %w", f.Name(), err)
	}
	m := &PowerLaw{Alpha: alpha, Xmin: 1}
	return finish(f.Name(), m, 1, h, nil)
}

// PALUFitter wraps the Section IV.B estimation pipeline
// (estimate.Estimate under estimate.DefaultOptions) — numerically
// identical to the legacy path.
type PALUFitter struct{}

// Name implements Fitter.
func (PALUFitter) Name() string { return "palu" }

// Fit implements Fitter.
func (f PALUFitter) Fit(h *hist.Histogram) (FitResult, error) {
	if err := validateHist(h); err != nil {
		return FitResult{}, err
	}
	res, err := estimate.Estimate(h, estimate.DefaultOptions())
	if err != nil {
		return FitResult{}, err
	}
	m := &PALU{Constants: res.Constants()}
	return finish(f.Name(), m, 5, h, map[string]float64{
		"tail_r2": res.TailR2, "tail_points": float64(res.TailPoints),
	})
}

// LognormalFitter fits the discrete lognormal by maximum likelihood.
type LognormalFitter struct{}

// Name implements Fitter.
func (LognormalFitter) Name() string { return "lognormal" }

// Fit implements Fitter.
func (f LognormalFitter) Fit(h *hist.Histogram) (FitResult, error) {
	if err := validateHist(h); err != nil {
		return FitResult{}, err
	}
	return f.problem(h).fit(f.Name(), h)
}

// problem is the lognormal likelihood problem on h: (μ, σ) over
// [−40, 40] × [0.05, 20], with moment-based starts from the
// count-weighted log-degree sample.
func (LognormalFitter) problem(h *hist.Histogram) mleProblem {
	mu0, sd0 := logMoments(h)
	return mleProblem{
		box:    stats.Box{Lo: [2]float64{-40, 0.05}, Hi: [2]float64{40, 20}},
		starts: [][2]float64{{mu0, sd0}, {mu0, 2 * sd0}, {mu0 - 1, sd0 + 0.5}},
		model: func(x [2]float64) Model {
			return &Lognormal{Mu: x[0], Sigma: x[1]}
		},
		oracle: lognormalNegLogLik(newSupport(h)),
	}
}

// lognormalNegLogLik is the lognormal's oracle: −log L = Σ n(d)·(ln Z −
// ln P(d)), each cell mass P(d) and the normalizer Z a normalCellJet.
// The cell edges ln(d ± ½) are taken once per fit. The value is
// −(*Lognormal).LogLik bit for bit.
func lognormalNegLogLik(s support) stats.Oracle {
	lo, hi := make([]float64, len(s.deg)), make([]float64, len(s.deg))
	for i, d := range s.deg {
		lo[i], hi[i] = math.Log(d-0.5), math.Log(d+0.5)
	}
	zlo, zhi := math.Log(0.5), math.Log(float64(s.dmax)+0.5)
	return func(x [2]float64) stats.Jet {
		mu, sigma := x[0], x[1]
		z := normalCellJet((zlo-mu)/sigma, (zhi-mu)/sigma, sigma).Log()
		var ll float64
		var cells stats.Jet
		for i, c := range s.count {
			p := normalCellJet((lo[i]-mu)/sigma, (hi[i]-mu)/sigma, sigma).Log()
			ll += c * (p.F - z.F)
			cells = cells.Add(p.Scale(c))
		}
		j := z.Scale(s.n).Sub(cells)
		j.F = -ll
		return j
	}
}

// logMoments returns the count-weighted mean and standard deviation of
// ln d over the histogram (floored away from degenerate zero spread).
func logMoments(h *hist.Histogram) (mean, sd float64) {
	total := float64(h.Total())
	for _, d := range h.Support() {
		mean += float64(h.Count(d)) * math.Log(float64(d))
	}
	mean /= total
	var varSum float64
	for _, d := range h.Support() {
		r := math.Log(float64(d)) - mean
		varSum += float64(h.Count(d)) * r * r
	}
	sd = math.Sqrt(varSum / total)
	if sd < 0.25 {
		sd = 0.25
	}
	return mean, sd
}

// TruncPowerLawFitter fits the truncated (exponential-cutoff) power law
// by maximum likelihood. The pure power law is its face λ = 0.
type TruncPowerLawFitter struct{}

// Name implements Fitter.
func (TruncPowerLawFitter) Name() string { return "truncplaw" }

// Fit implements Fitter.
func (f TruncPowerLawFitter) Fit(h *hist.Histogram) (FitResult, error) {
	if err := validateHist(h); err != nil {
		return FitResult{}, err
	}
	return f.problem(h).fit(f.Name(), h)
}

// problem is the truncated power-law likelihood problem on h: (α, λ)
// over [0.05, 12] × [0, 2].
func (TruncPowerLawFitter) problem(h *hist.Histogram) mleProblem {
	return mleProblem{
		box:    stats.Box{Lo: [2]float64{0.05, 0}, Hi: [2]float64{12, 2}},
		starts: [][2]float64{{1.5, 1e-4}, {2.2, 1e-3}, {2.8, 1e-2}, {1.2, 0.1}},
		model: func(x [2]float64) Model {
			return &TruncPowerLaw{Alpha: x[0], Lambda: x[1]}
		},
		oracle: truncNegLogLik(newSupport(h)),
	}
}

// truncNegLogLik is truncplaw's oracle: −log L = Σ n(d)·(α·ln d + λ·d +
// ln Z), whose data terms are linear in (α, λ) with the constant
// gradient (Σ n·ln d, Σ n·d); ln Z's jet is cutoffJet's, over logs taken
// once per fit. The value is −(*TruncPowerLaw).LogLik bit for bit.
func truncNegLogLik(s support) stats.Oracle {
	logs := cutoffLogs(1, s.dmax)
	lnd := make([]float64, len(s.deg))
	var sl, sd float64
	for i, d := range s.deg {
		lnd[i] = math.Log(d)
		sl += s.count[i] * lnd[i]
		sd += s.count[i] * d
	}
	return func(x [2]float64) stats.Jet {
		alpha, lambda := x[0], x[1]
		z := cutoffJet(alpha, lambda, logs, 1, s.dmax).Log()
		var ll float64
		for i, d := range s.deg {
			ll += s.count[i] * (-alpha*lnd[i] - lambda*d - z.F)
		}
		j := z.Scale(s.n)
		j.F = -ll
		j.G[0] += sl
		j.G[1] += sd
		return j
	}
}
