package model_test

import (
	"fmt"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/model"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/stream"
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

// TestFitAllZMMLEBitExactOnFig3Panels: on every Fig. 3 panel's merged
// histogram, FitAll's zm and zm-mle equal each fitter's own Fit.
func TestFitAllZMMLEBitExactOnFig3Panels(t *testing.T) {
	if testing.Short() {
		t.Skip("streams every Fig. 3 panel")
	}
	reg := model.Default()
	names := []string{"zm", "zm-mle"}
	for _, spec := range netgen.Figure3Panels() {
		h := panelHistogram(t, spec)
		results, errs, err := reg.FitAll(h, names...)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			if errs[i] != nil {
				t.Errorf("%s %s: %v", spec.ID, name, errs[i])
				continue
			}
			f, _ := reg.Lookup(name)
			alone, err := f.Fit(h)
			if err != nil {
				t.Errorf("%s %s alone: %v", spec.ID, name, err)
				continue
			}
			if d := fitDiff(results[i], alone); d != "" {
				t.Errorf("%s %s: FitAll differs from its own fit: %s", spec.ID, name, d)
			}
		}
	}
}
