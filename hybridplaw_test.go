package hybridplaw

import (
	"math"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quick-start describes: model → observation → fit → estimate.
func TestFacadeEndToEnd(t *testing.T) {
	params, err := PALUFromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(1)
	h, err := FastObservedHistogram(params, 300000, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	fit, pooled, err := FitZipfMandelbrot(h)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha <= 1 || fit.Alpha > 4 {
		t.Errorf("fit alpha = %v", fit.Alpha)
	}
	if pooled.NumBins() == 0 {
		t.Error("empty pooled distribution")
	}
	est, err := EstimatePALU(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Alpha-2.0) > 0.2 {
		t.Errorf("estimated alpha = %v", est.Alpha)
	}
}

func TestFacadeStreamPipeline(t *testing.T) {
	params, err := PALUFromWeights(2, 2, 1, 2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	site, err := NewSite(SiteConfig{
		Name: "facade", Params: params, Nodes: 20000, P: 0.5,
		WeightAlpha: 2.1, WeightDelta: 0, MaxWeight: 512,
		InvalidFraction: 0.02, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var col ResultCollector
	stats, err := RunPipeline(site.PacketSource(), PipelineConfig{NV: 20000, MaxWindows: 2}, &col)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 2 || len(col.Results) != 2 {
		t.Fatalf("windows = %d, collected %d, want 2", stats.Windows, len(col.Results))
	}
	win := col.Results[0]
	for _, q := range []Quantity{SourcePackets, SourceFanOut, LinkPackets, DestinationFanIn, DestinationPackets} {
		if h := win.Hist(q); h == nil || h.Total() == 0 {
			t.Errorf("%v: empty histogram", q)
		}
	}
	if win.Aggregates.ValidPackets != 20000 {
		t.Errorf("NV = %d", win.Aggregates.ValidPackets)
	}
}

func TestFacadeGraphPath(t *testing.T) {
	params, err := PALUFromWeights(2, 2, 1.5, 2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(3)
	u, err := GeneratePALU(params, PALUGenerateOptions{N: 50000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := u.Observe(0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	topo := obs.DecomposeTopology()
	if topo.SupernodeDegree <= 0 {
		t.Error("no supernode")
	}
	if topo.UnattachedLinks == 0 {
		t.Error("no unattached links")
	}
}

func TestFacadeBridgeAndCurve(t *testing.T) {
	params, err := PALUFromWeights(2, 1, 1, 3, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewPALUObservation(params, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := DeltaFromObservation(o)
	if err != nil {
		t.Fatal(err)
	}
	if delta >= 0 || delta <= -1 {
		t.Errorf("bridge delta = %v", delta)
	}
	c := PALUCurve{Alpha: 2, Delta: delta, R: 2}
	pmf, err := c.PMF(1024)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range pmf {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("curve pmf mass = %v", sum)
	}
}

func TestFacadeJointEstimate(t *testing.T) {
	params, err := PALUFromWeights(2, 2, 1.5, 3, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(11)
	var wins []WindowEstimate
	for _, p := range []float64{0.4, 0.6, 0.8} {
		h, err := FastObservedHistogram(params, 800000, p, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimatePALU(h)
		if err != nil {
			t.Fatal(err)
		}
		wins = append(wins, WindowEstimate{Result: est, P: p})
	}
	joint, err := JointEstimatePALU(wins)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(joint.Params.Alpha-2.0) > 0.2 {
		t.Errorf("joint alpha = %v", joint.Params.Alpha)
	}
}

func TestFacadePowerLawBaseline(t *testing.T) {
	rng := NewRNG(5)
	h := NewHistogram()
	for i := 0; i < 50000; i++ {
		d, err := rng.Zeta(2.3)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	f, err := FitPowerLaw(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Alpha-2.3) > 0.15 {
		t.Errorf("baseline alpha = %v", f.Alpha)
	}
}

// TestFacadeModelLayer drives the unified model layer through the
// facade: registry fits, likelihood selection and the Vuong test.
func TestFacadeModelLayer(t *testing.T) {
	params, err := PALUFromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := FastObservedHistogram(params, 150000, 0.7, NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	reg := DefaultModelRegistry()
	results, errs, err := reg.FitAll(h, "zm", "zm-mle", "plaw")
	if err != nil {
		t.Fatal(err)
	}
	var ok []ModelFitResult
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("%s: %v", r.Fitter, errs[i])
		}
		ok = append(ok, r)
	}
	sel, err := SelectModels(h, ok)
	if err != nil {
		t.Fatal(err)
	}
	best, found := sel.Best()
	if !found || best.Model.Name() != "zm" {
		t.Errorf("winner = %+v, want a zm-family fit", best)
	}
	v, err := VuongTest(h, ok[1].Model, ok[2].Model) // zm-mle vs plaw
	if err != nil {
		t.Fatal(err)
	}
	if v.Z <= 0 {
		t.Errorf("Vuong z = %v, want zm-mle favoured", v.Z)
	}
	// Registry-routed zm must match the legacy facade fit exactly.
	legacy, _, err := FitZipfMandelbrot(h)
	if err != nil {
		t.Fatal(err)
	}
	zmParams := ok[0].Model.Params()
	if zmParams[0].Value != legacy.Alpha || zmParams[1].Value != legacy.Delta {
		t.Errorf("registry zm (%v) != legacy fit (%v, %v)", zmParams, legacy.Alpha, legacy.Delta)
	}
}

// TestFacadeBootstrapIntervals bootstraps the ZM and PALU intervals
// through the facade.
func TestFacadeBootstrapIntervals(t *testing.T) {
	params, err := PALUFromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := FastObservedHistogram(params, 60000, 0.5, NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	zmCI, err := BootstrapZipfMandelbrot(h, 10, 0.9, NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if !(zmCI.Alpha.Lo < zmCI.Alpha.Hi) {
		t.Errorf("zm alpha CI %+v", zmCI.Alpha)
	}
	paluCI, err := BootstrapPALU(h, 12, 0.9, NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if !(paluCI.Alpha.Lo < paluCI.Alpha.Hi) {
		t.Errorf("palu alpha CI %+v", paluCI.Alpha)
	}
}
