package powerlaw_test

import (
	"testing"

	"hybridplaw/internal/experiments"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/powerlaw"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/xrand"
)

// mergedHistogram streams windows × nv valid packets off a generated
// site and returns the merged histogram of quantity q.
func mergedHistogram(t *testing.T, site netgen.SiteConfig, q stream.Quantity, nv int64, windows int) *hist.Histogram {
	t.Helper()
	s, err := netgen.NewSite(site)
	if err != nil {
		t.Fatal(err)
	}
	sink := stream.NewEnsembleSink(q)
	st, err := stream.Run(s.PacketSource(), stream.PipelineConfig{NV: nv, MaxWindows: windows}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows != windows {
		t.Fatalf("%s: %d windows, want %d", site.Name, st.Windows, windows)
	}
	return sink.Merged(q)
}

// TestFitScanWithinToleranceOnSuiteInputs runs the golden-section pin
// of TestFitScanWithinTolerance on every histogram palu-figures fits
// csn to at seed 1: the six Fig. 3 panels (modelsel/<panel>),
// modelsel/palu-observed, the three federation sites and their
// backbone.
func TestFitScanWithinToleranceOnSuiteInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("streams every Fig. 3 panel and federation site")
	}
	type input struct {
		name string
		h    *hist.Histogram
	}
	var inputs []input
	for _, spec := range netgen.Figure3Panels() {
		inputs = append(inputs, input{spec.ID, mergedHistogram(t, spec.Site, spec.Quantity, spec.NV, spec.Windows)})
	}
	params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	// experiments.RunModelSelectionPALU(1, 0): 300k nodes at seed 1.
	observed, err := palu.FastObservedHistogram(params, 300000, 0.7, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"palu-observed", observed})
	// Each federation site is 4 windows of 120k valid packets
	// (internal/experiments/federation.go). The backbone rebases the
	// sites into disjoint id ranges before it merges them, so its merged
	// source-packets histogram is the sum of theirs.
	backbone := hist.New()
	for _, s := range experiments.FederationSites() {
		h := mergedHistogram(t, s.Site, stream.SourcePackets, 120000, 4)
		inputs = append(inputs, input{s.ID, h})
		backbone.Merge(h)
	}
	inputs = append(inputs, input{"backbone", backbone})
	for _, in := range inputs {
		f, err := powerlaw.FitScan(in.h, 0)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		sum := powerlaw.CheckScanWithinTolerance(t, in.name, in.h)
		t.Logf("%s: n=%d, xmin=%d, α=%.4g; %s", in.name, in.h.Total(), f.Xmin, f.Alpha, sum)
	}
}
