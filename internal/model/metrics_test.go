package model_test

import (
	"sort"
	"strings"
	"testing"

	"hybridplaw/internal/model"
	"hybridplaw/internal/obs"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/testenv"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

// TestFitMetrics: NewMetrics registers one timer per built-in fitter,
// the zipfmand fit timer and the oracle-call counter before any fit
// runs; an instrumented FitAll starts one span per fit and counts each
// solver fit's evals, TimeZMFit one span and the fit's evals; and an
// uninstrumented registry and a nil bundle fit the same results.
func TestFitMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := model.NewMetrics(reg)
	names := testenv.MetricNames(reg.Snapshot())
	want := []string{"palu_model_oracle_calls_total"}
	for _, n := range []string{"csn", "lognormal", "palu", "plaw", "truncplaw", "zm", "zm_mle"} {
		want = append(want, "palu_model_fit_"+n+"_ns", "palu_model_fit_"+n+"_spans_total")
	}
	want = append(want, "palu_zipfmand_fit_ns", "palu_zipfmand_fit_spans_total")
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("registered %v, want %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("registered %v, want %v", names, want)
		}
	}

	params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := palu.FastObservedHistogram(params, 20000, 0.7, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	results, errs, err := model.Default().Instrument(m).FitAll(h)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, _ := model.Default().FitAll(h)
	var evals int64
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("%s: %v", r.Fitter, errs[i])
		}
		spans := "palu_model_fit_" + strings.ReplaceAll(r.Fitter, "-", "_") + "_spans_total"
		if got := testenv.Metric(t, reg.Snapshot(), spans).Value; got != 1 {
			t.Errorf("%s: %d spans, want 1", r.Fitter, got)
		}
		if r.LogLik != plain[i].LogLik {
			t.Errorf("%s: instrumented loglik %v, plain %v", r.Fitter, r.LogLik, plain[i].LogLik)
		}
		evals += int64(r.Diag["evals"])
	}
	if got := m.OracleCalls.Value(); got != evals || evals == 0 {
		t.Errorf("oracle calls %d, want the fits' evals %d (> 0)", got, evals)
	}
	fit, err := m.TimeZMFit(func() (zipfmand.FitResult, error) {
		fit, _, err := zipfmand.FitHistogram(h, zipfmand.DefaultFitOptions())
		return fit, err
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := testenv.Metric(t, reg.Snapshot(), "palu_zipfmand_fit_spans_total").Value
	if spans != 1 || m.OracleCalls.Value() != evals+int64(fit.Evals) {
		t.Errorf("zipfmand fit: %d spans, %d oracle calls, want 1 and %d",
			spans, m.OracleCalls.Value(), evals+int64(fit.Evals))
	}
	var none *model.Metrics
	again, err := none.TimeZMFit(func() (zipfmand.FitResult, error) {
		fit, _, err := zipfmand.FitHistogram(h, zipfmand.DefaultFitOptions())
		return fit, err
	})
	if err != nil || again.Model != fit.Model {
		t.Errorf("nil bundle: %+v (%v), want %+v", again.Model, err, fit.Model)
	}
}
