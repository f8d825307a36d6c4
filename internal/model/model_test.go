package model

import (
	"math"
	"testing"

	"hybridplaw/internal/estimate"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/powerlaw"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

// paluHistogram samples the reference leaf-heavy PALU observation used
// across the selection tests.
func paluHistogram(t *testing.T, n int, seed uint64) *hist.Histogram {
	t.Helper()
	params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := palu.FastObservedHistogram(params, n, 0.7, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestRegistryEquivalencePins asserts the refactor's equivalence pins:
// registry-routed ZM, CSN, and Section IV.B fits are numerically
// identical to direct legacy calls.
func TestRegistryEquivalencePins(t *testing.T) {
	h := paluHistogram(t, 200000, 11)
	reg := Default()

	zmRes, errs, err := reg.FitAll(h, "zm")
	if err != nil || errs[0] != nil {
		t.Fatalf("zm fit: %v %v", err, errs)
	}
	legacyZM, _, err := zipfmand.FitHistogram(h, zipfmand.DefaultFitOptions())
	if err != nil {
		t.Fatal(err)
	}
	zm := zmRes[0].Model.(*ZM)
	if zm.ZM.Alpha != legacyZM.Alpha || zm.ZM.Delta != legacyZM.Delta {
		t.Errorf("zm registry fit (%v,%v) != legacy (%v,%v)",
			zm.ZM.Alpha, zm.ZM.Delta, legacyZM.Alpha, legacyZM.Delta)
	}
	if zmRes[0].Diag["sse"] != legacyZM.SSE || zmRes[0].Diag["ks"] != legacyZM.KS {
		t.Error("zm diagnostics differ from legacy fit")
	}

	csnRes, errs, err := reg.FitAll(h, "csn")
	if err != nil || errs[0] != nil {
		t.Fatalf("csn fit: %v %v", err, errs)
	}
	legacyCSN, err := powerlaw.FitScan(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	csn := csnRes[0].Model.(*CSN)
	if csn.Fit != legacyCSN {
		t.Errorf("csn registry fit %+v != legacy %+v", csn.Fit, legacyCSN)
	}

	paluRes, errs, err := reg.FitAll(h, "palu")
	if err != nil || errs[0] != nil {
		t.Fatalf("palu fit: %v %v", err, errs)
	}
	legacyEst, err := estimate.Estimate(h, estimate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pm := paluRes[0].Model.(*PALU)
	if pm.Constants != legacyEst.Constants() {
		t.Errorf("palu registry constants %+v != legacy %+v", pm.Constants, legacyEst.Constants())
	}
}

// TestFamiliesPMFAndLogLikConsistency checks, for every fitted family:
// the PMF sums to 1 and LogLik agrees with the PMF-based likelihood.
func TestFamiliesPMFAndLogLikConsistency(t *testing.T) {
	h := paluHistogram(t, 60000, 3)
	dmax := h.MaxDegree()
	reg := Default()
	results, errs, err := reg.FitAll(h)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		name := reg.Names()[i]
		if errs[i] != nil {
			t.Errorf("%s: fit failed: %v", name, errs[i])
			continue
		}
		pmf, err := r.Model.PMF(dmax)
		if err != nil {
			t.Errorf("%s: PMF: %v", name, err)
			continue
		}
		if len(pmf) != dmax {
			t.Errorf("%s: PMF length %d != dmax %d", name, len(pmf), dmax)
		}
		var sum float64
		for _, p := range pmf {
			if p < 0 {
				t.Errorf("%s: negative pmf value %v", name, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("%s: PMF sums to %v", name, sum)
		}
		// LogLik must agree with the PMF it exposes.
		var want float64
		for _, d := range h.Support() {
			want += float64(h.Count(d)) * math.Log(pmf[d-1])
		}
		got, err := r.Model.LogLik(h)
		if err != nil {
			t.Errorf("%s: LogLik: %v", name, err)
			continue
		}
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("%s: LogLik %v != PMF-based %v", name, got, want)
		}
		if r.LogLik != got {
			t.Errorf("%s: FitResult.LogLik %v != Model.LogLik %v", name, r.LogLik, got)
		}
		wantAIC := 2*float64(r.K) - 2*got
		if math.Abs(r.AIC-wantAIC) > 1e-9*math.Abs(wantAIC) {
			t.Errorf("%s: AIC %v != %v", name, r.AIC, wantAIC)
		}
	}
}

// TestCSNSemiparametricHead verifies the CSN model reproduces the
// empirical head exactly and the scanned tail mass.
func TestCSNSemiparametricHead(t *testing.T) {
	h := paluHistogram(t, 100000, 9)
	res, errs, err := Default().FitAll(h, "csn")
	if err != nil || errs[0] != nil {
		t.Fatalf("csn: %v %v", err, errs)
	}
	m := res[0].Model.(*CSN)
	pmf, err := m.PMF(h.MaxDegree())
	if err != nil {
		t.Fatal(err)
	}
	total := float64(h.Total())
	for d := 1; d < m.Fit.Xmin; d++ {
		want := float64(h.Count(d)) / total
		if math.Abs(pmf[d-1]-want) > 1e-12 {
			t.Errorf("head d=%d: pmf %v != empirical %v", d, pmf[d-1], want)
		}
	}
	var tail float64
	for d := m.Fit.Xmin; d <= h.MaxDegree(); d++ {
		tail += pmf[d-1]
	}
	if math.Abs(tail-m.PTail) > 1e-9 {
		t.Errorf("tail mass %v != PTail %v", tail, m.PTail)
	}
}

// TestPowSumAndCutoffSumAgainstDirect pins cutoffSum, the truncated
// power-law normalizer, against direct summation; its λ = 0 cases are
// the pure power sum, zipfmand.Model.BinSum.
func TestPowSumAndCutoffSumAgainstDirect(t *testing.T) {
	direct := func(alpha, lambda float64, a, b int) float64 {
		var s float64
		for d := a; d <= b; d++ {
			s += math.Exp(-alpha*math.Log(float64(d)) - lambda*float64(d))
		}
		return s
	}
	for _, tc := range []struct {
		alpha, lambda float64
		a, b          int
	}{
		{2.1, 0, 1, 50000},
		{1.4, 0, 3, 20000},
		{2.3, 1e-4, 1, 60000},
		{1.1, 1e-3, 1, 30000},
		{0.6, 0.01, 1, 20000},
		{3.0, 0.3, 1, 5000},
	} {
		want := direct(tc.alpha, tc.lambda, tc.a, tc.b)
		got := cutoffSum(tc.alpha, tc.lambda, tc.a, tc.b)
		if rel := math.Abs(got-want) / want; rel > 2e-5 {
			t.Errorf("sum(alpha=%v lambda=%v %d..%d) = %v, direct %v (rel %v)",
				tc.alpha, tc.lambda, tc.a, tc.b, got, want, rel)
		}
	}
}

func TestPoissonSum(t *testing.T) {
	// Σ_{d=2}^{∞} μ^d/d! = e^μ − 1 − μ.
	for _, mu := range []float64{0.3, 1.5, 6.0} {
		want := math.Expm1(mu) - mu
		got := poissonSum(mu, 2, 1<<20)
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("poissonSum(mu=%v) = %v, want %v", mu, got, want)
		}
	}
	if got := poissonSum(0, 2, 100); got != 0 {
		t.Errorf("poissonSum(mu=0) = %v", got)
	}
}

func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(ZMFitter{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ZMFitter{}); err == nil {
		t.Error("duplicate registration: expected error")
	}
	if err := r.Register(nil); err == nil {
		t.Error("nil fitter: expected error")
	}
	if _, _, err := r.FitAll(hist.New(), "nope"); err == nil {
		t.Error("unknown fitter: expected error")
	}
}

func TestFitAllCollectsPerFitterErrors(t *testing.T) {
	// A two-degree histogram defeats the tail-regression fitters but not
	// the ML families; FitAll must return both outcomes.
	h, err := hist.FromCounts(map[int]int64{1: 100, 2: 20})
	if err != nil {
		t.Fatal(err)
	}
	results, errs, err := Default().FitAll(h, "palu", "lognormal")
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] == nil {
		t.Error("palu on 2-degree support: expected error")
	}
	if errs[1] != nil {
		t.Errorf("lognormal: %v", errs[1])
	}
	if results[1].Model == nil {
		t.Error("lognormal result missing")
	}
}

func TestEmptyHistogramRejected(t *testing.T) {
	reg := Default()
	for _, name := range reg.Names() {
		f, _ := reg.Lookup(name)
		if _, err := f.Fit(hist.New()); err == nil {
			t.Errorf("%s: empty histogram accepted", name)
		}
		if _, err := f.Fit(nil); err == nil {
			t.Errorf("%s: nil histogram accepted", name)
		}
	}
}
