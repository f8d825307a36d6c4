package model_test

import (
	"fmt"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/model"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

// fitDiff returns "" when two fits are bit-identical in everything a
// selection table prints: parameters, log-likelihood, AIC, BIC and every
// diagnostic (compared with ==, so no tolerance hides a changed start).
func fitDiff(got, want model.FitResult) string {
	if got.Fitter != want.Fitter || got.K != want.K || got.N != want.N {
		return fmt.Sprintf("identity %s/%d/%d, want %s/%d/%d", got.Fitter, got.K, got.N, want.Fitter, want.K, want.N)
	}
	gp, wp := got.Model.Params(), want.Model.Params()
	if len(gp) != len(wp) {
		return fmt.Sprintf("params %v, want %v", gp, wp)
	}
	for i := range gp {
		if gp[i] != wp[i] {
			return fmt.Sprintf("params %v, want %v", gp, wp)
		}
	}
	if got.LogLik != want.LogLik || got.AIC != want.AIC || got.BIC != want.BIC {
		return fmt.Sprintf("loglik/aic/bic %v/%v/%v, want %v/%v/%v",
			got.LogLik, got.AIC, got.BIC, want.LogLik, want.AIC, want.BIC)
	}
	if len(got.Diag) != len(want.Diag) {
		return fmt.Sprintf("diag %v, want %v", got.Diag, want.Diag)
	}
	for k, v := range want.Diag {
		if g, ok := got.Diag[k]; !ok || g != v {
			return fmt.Sprintf("diag %v, want %v", got.Diag, want.Diag)
		}
	}
	return ""
}

// panelHistogram streams one Fig. 3 panel's windows from the generator
// and returns the merged histogram of its quantity: the histogram the
// modelsel/<panel> scenario fits.
func panelHistogram(t *testing.T, spec netgen.PanelSpec) *hist.Histogram {
	t.Helper()
	site, err := netgen.NewSite(spec.Site)
	if err != nil {
		t.Fatal(err)
	}
	sink := stream.NewEnsembleSink(spec.Quantity)
	stats, err := stream.Run(site.PacketSource(),
		stream.PipelineConfig{NV: spec.NV, MaxWindows: spec.Windows}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != spec.Windows {
		t.Fatalf("%s: %d windows, want %d", spec.ID, stats.Windows, spec.Windows)
	}
	return sink.Merged(spec.Quantity)
}

// checkFitAllZMPair fits zm then zm-mle through FitAll on h and requires
// both results to equal each fitter's own Fit. It returns FitAll's zm
// error.
func checkFitAllZMPair(t *testing.T, label string, reg *model.Registry, h *hist.Histogram) error {
	t.Helper()
	results, errs, err := reg.FitAll(h, "zm", "zm-mle")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"zm", "zm-mle"} {
		f, _ := reg.Lookup(name)
		alone, aloneErr := f.Fit(h)
		if (errs[i] == nil) != (aloneErr == nil) {
			t.Errorf("%s %s: FitAll error %v, alone %v", label, name, errs[i], aloneErr)
			continue
		}
		if errs[i] != nil {
			continue
		}
		if d := fitDiff(results[i], alone); d != "" {
			t.Errorf("%s %s: FitAll differs from its own fit: %s", label, name, d)
		}
	}
	return errs[0]
}

// TestFitAllZMMLEBitExactOnFig3Panels pins FitAll's reuse of zm's
// least-squares optimum as zm-mle's first start: on every Fig. 3 panel's
// merged histogram, FitAll's zm-mle equals zm-mle fitted on its own.
func TestFitAllZMMLEBitExactOnFig3Panels(t *testing.T) {
	if testing.Short() {
		t.Skip("streams every Fig. 3 panel")
	}
	reg := model.Default()
	for _, spec := range netgen.Figure3Panels() {
		if err := checkFitAllZMPair(t, spec.ID, reg, panelHistogram(t, spec)); err != nil {
			t.Errorf("%s: zm failed: %v", spec.ID, err)
		}
	}
}

// TestFitAllZMMLEFallbackWhenZMFails: when zm's least-squares fit fails,
// zm-mle inside FitAll falls back to its fixed starts exactly as it does
// on its own; when only one of the two fitters' options fails, zm-mle
// fits its own least squares. zm-mle runs one solve from the best of
// its starts, and on this histogram that is the least-squares one, so a
// start dropped or taken from zm's other options starts the solve
// elsewhere and changes the fit's bits.
func TestFitAllZMMLEFallbackWhenZMFails(t *testing.T) {
	params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := palu.FastObservedHistogram(params, 50000, 0.7, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// A sigma vector of the wrong length fails zipfmand.Fit outright.
	bad := zipfmand.FitOptions{LogSpace: true, Sigma: []float64{1}}
	for _, tc := range []struct {
		name       string
		zm, mle    zipfmand.FitOptions
		wantZMFail bool
	}{
		{"zm fails", bad, bad, true},
		{"only zm's fails", bad, zipfmand.DefaultFitOptions(), true},
		{"only zm-mle's fails", zipfmand.DefaultFitOptions(), bad, false},
	} {
		reg := model.NewRegistry()
		reg.MustRegister(model.ZMFitter{Opts: tc.zm})
		reg.MustRegister(model.ZMMLEFitter{LSOpts: tc.mle})
		zmErr := checkFitAllZMPair(t, tc.name, reg, h)
		if (zmErr != nil) != tc.wantZMFail {
			t.Errorf("%s: zm error %v, want failure %v", tc.name, zmErr, tc.wantZMFail)
		}
	}
}
