package model

// Fit-layer observability (DESIGN.md §11): where a run's fitting time
// goes, per fitter, and how many oracle calls the solver made for it.

import (
	"strings"

	"hybridplaw/internal/obs"
	"hybridplaw/internal/zipfmand"
)

// Metrics instruments the fit layer: one timer per built-in fitter
// around its fits in Registry.FitAll, one around the least-squares
// zipfmand fits made outside the registry (TimeZMFit), and a counter of
// the stats.MinimizeBox oracle calls of every timed fit. A nil *Metrics
// disables instrumentation.
type Metrics struct {
	// Fit times each built-in fitter's fits, keyed by registry name.
	Fit map[string]*obs.Timer
	// ZMFit times the zipfmand fits run through TimeZMFit.
	ZMFit *obs.Timer
	// OracleCalls counts the solver's oracle calls (the fits' evals).
	OracleCalls *obs.Counter
}

// NewMetrics registers the fit instrument set against reg — the process
// default registry if nil — and returns the bundle. Every built-in
// fitter's timer is registered up front, so every snapshot has the same
// key set whichever fits ran.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.Default()
	}
	m := &Metrics{
		Fit: make(map[string]*obs.Timer),
		ZMFit: reg.Timer("palu_zipfmand_fit_ns",
			"least-squares zipfmand fits outside the fitter registry"),
		OracleCalls: reg.Counter("palu_model_oracle_calls_total",
			"value, gradient and Hessian evaluations of the fit solver"),
	}
	for _, name := range Default().Names() {
		m.Fit[name] = reg.Timer("palu_model_fit_"+strings.ReplaceAll(name, "-", "_")+"_ns",
			"fits by the "+name+" fitter")
	}
	return m
}

// TimeZMFit runs fit, a zipfmand least-squares fit, under the ZMFit
// timer and counts its oracle calls.
func (m *Metrics) TimeZMFit(fit func() (zipfmand.FitResult, error)) (zipfmand.FitResult, error) {
	if m == nil {
		return fit()
	}
	sp := m.ZMFit.Start()
	res, err := fit()
	sp.Stop()
	m.OracleCalls.Add(int64(res.Evals))
	return res, err
}

// timeFit runs one registry fit under its fitter's timer (none for a
// fitter that is not built in) and counts its oracle calls.
func (m *Metrics) timeFit(name string, fit func() (FitResult, error)) (FitResult, error) {
	if m == nil {
		return fit()
	}
	sp := m.Fit[name].Start()
	res, err := fit()
	sp.Stop()
	m.OracleCalls.Add(int64(res.Diag["evals"]))
	return res, err
}
