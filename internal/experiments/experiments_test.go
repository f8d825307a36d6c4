package experiments

import (
	"math"
	"testing"

	"hybridplaw/internal/scenario"
)

func TestRunTableI(t *testing.T) {
	res, err := runTableI(&scenario.Context{}, 1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregates.ValidPackets != 20000 {
		t.Errorf("NV = %d", res.Aggregates.ValidPackets)
	}
	if !res.TransposeConsistent {
		t.Error("transpose identities failed")
	}
	if !res.ParallelConsistent {
		t.Error("parallel rebuild mismatch")
	}
	if !res.StreamConsistent {
		t.Error("pipeline incremental aggregates diverge from matrix Table I")
	}
	if res.Aggregates.UniqueLinks <= 0 || res.Aggregates.UniqueSources <= 0 ||
		res.Aggregates.UniqueDestinations <= 0 {
		t.Errorf("degenerate aggregates: %+v", res.Aggregates)
	}
	// In any traffic matrix: links <= NV, sources <= links, dests <= links.
	a := res.Aggregates
	if a.UniqueLinks > a.ValidPackets || a.UniqueSources > a.UniqueLinks ||
		a.UniqueDestinations > a.UniqueLinks {
		t.Errorf("aggregate ordering violated: %+v", a)
	}
}

func TestRunFigure1(t *testing.T) {
	res, err := runFigure1(&scenario.Context{}, 2, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quantity) != 5 {
		t.Fatalf("quantities = %d", len(res.Quantity))
	}
	for i, q := range res.Quantity {
		if res.Total[i] <= 0 {
			t.Errorf("%s: empty histogram", q)
		}
		if res.MaxDegree[i] < 1 {
			t.Errorf("%s: dmax = %d", q, res.MaxDegree[i])
		}
		if res.FracD1[i] <= 0 || res.FracD1[i] > 1 {
			t.Errorf("%s: D(1) = %v", q, res.FracD1[i])
		}
	}
}

func TestRunFigure2(t *testing.T) {
	res, err := RunFigure2(3)
	if err != nil {
		t.Fatal(err)
	}
	topo := res.Topology
	if topo.SupernodeDegree <= 0 {
		t.Error("no supernode found")
	}
	if topo.UnattachedLinks == 0 {
		t.Error("no unattached links in a star-rich PALU network")
	}
	if topo.CoreNodes == 0 {
		t.Error("no core")
	}
	// Observed unattached-link fraction should track the analytic one.
	if res.ExpectedUnattachedLinkFrac <= 0 {
		t.Fatal("expected fraction not computed")
	}
	rel := math.Abs(res.ObservedUnattachedLinkFrac-res.ExpectedUnattachedLinkFrac) /
		res.ExpectedUnattachedLinkFrac
	if rel > 0.25 {
		t.Errorf("unattached links: observed %v vs expected %v",
			res.ObservedUnattachedLinkFrac, res.ExpectedUnattachedLinkFrac)
	}
}

func TestRunFigure4PanelErrorNamesR(t *testing.T) {
	// δ > 0 makes u/c negative, and at r = 1.01 PALU(2) < 0; the panel's
	// error names the r whose curve failed.
	const want = "r=1.01: palu: PALU(2) = -0.4658333561888045 not a density (delta 0.9 gives negative star weight)"
	_, err := RunFigure4Panel(Figure4Panel{Alpha: 2, Delta: 0.9, Rs: []float64{1.01}}, 1000)
	if err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}

func TestRunFigure4PanelShapes(t *testing.T) {
	panels := Figure4Spec()
	if len(panels) != 5 {
		t.Fatalf("panels = %d", len(panels))
	}
	// Small dmax keeps the test fast; shape checks still apply.
	res, err := RunFigure4Panel(panels[2], 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PALU) != len(panels[2].Rs) {
		t.Fatalf("curves = %d", len(res.PALU))
	}
	var zmMass float64
	for _, v := range res.ZM {
		zmMass += v
	}
	if math.Abs(zmMass-1) > 1e-9 {
		t.Errorf("ZM pooled mass = %v", zmMass)
	}
	for i, pd := range res.PALU {
		var mass float64
		for _, v := range pd {
			mass += v
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Errorf("curve %d mass = %v", i, mass)
		}
	}
	if res.BestSupLog10 > 0.5 {
		t.Errorf("best sup log distance = %v; PALU should approach ZM", res.BestSupLog10)
	}
}

func TestRunValidation(t *testing.T) {
	rows, err := RunValidation(11, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Monte-Carlo tolerance: 6 standard errors (1/√count relative)
		// with a 3% floor for the model's own small approximations.
		tol := 0.03
		if r.ExpectedCount > 0 {
			tol += 6 / math.Sqrt(r.ExpectedCount)
		}
		if r.RelErr > tol {
			t.Errorf("%s: relerr = %v > tol %v (analytic %v, simulated %v)",
				r.Name, r.RelErr, tol, r.Analytic, r.Simulated)
		}
	}
	if s := ValidationSummary(rows); len(s) == 0 {
		t.Error("empty summary")
	}
}

func TestRunRecovery(t *testing.T) {
	res, err := RunRecovery(13, 500000)
	if err != nil {
		t.Fatal(err)
	}
	if res.AlphaErr > 0.15 {
		t.Errorf("alpha error = %v", res.AlphaErr)
	}
	if res.CRelErr > 0.3 {
		t.Errorf("c relative error = %v", res.CRelErr)
	}
	if res.MuErr > 0.6 {
		t.Errorf("mu error = %v", res.MuErr)
	}
	if res.LRelErr > 0.4 {
		t.Errorf("l relative error = %v", res.LRelErr)
	}
}

func TestRunWindowInvariance(t *testing.T) {
	res, err := RunWindowInvariance(17, 800000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWindow) != len(res.Ps) {
		t.Fatalf("windows = %d", len(res.PerWindow))
	}
	// α must be stable across windows.
	if res.Joint.AlphaSpread > 0.25 {
		t.Errorf("alpha spread = %v", res.Joint.AlphaSpread)
	}
	// The joint lift should land near the generating parameters.
	if relErr(res.Joint.Params.C, res.TrueParams.C) > 0.5 {
		t.Errorf("joint C = %v want %v", res.Joint.Params.C, res.TrueParams.C)
	}
	if relErr(res.Joint.Params.L, res.TrueParams.L) > 0.5 {
		t.Errorf("joint L = %v want %v", res.Joint.Params.L, res.TrueParams.L)
	}
	if math.Abs(res.Joint.Params.Lambda-res.TrueParams.Lambda) > 1.2 {
		t.Errorf("joint lambda = %v want %v", res.Joint.Params.Lambda, res.TrueParams.Lambda)
	}
	// Scaling diagnostics: slope near α−2 within statistical wiggle.
	if math.Abs(res.Diag.CLSlope-res.Diag.CLSlopeWant) > 0.6 {
		t.Errorf("c/l slope = %v want ~%v", res.Diag.CLSlope, res.Diag.CLSlopeWant)
	}
}

func TestRunBaselineComparison(t *testing.T) {
	res, err := baselineComparison(19, 150000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comparison.CompetitorLogSSE >= res.Comparison.PowerLawLogSSE {
		t.Errorf("ZM SSE %v should beat power law %v",
			res.Comparison.CompetitorLogSSE, res.Comparison.PowerLawLogSSE)
	}
	if res.ZMAlpha <= 1 {
		t.Errorf("ZM alpha = %v", res.ZMAlpha)
	}
}

// BenchmarkBaselineComparison regenerates E-X2: single power law vs
// modified Zipf–Mandelbrot on leaf-heavy data.
func BenchmarkBaselineComparison(b *testing.B) {
	var last BaselineComparisonResult
	for i := 0; i < b.N; i++ {
		res, err := baselineComparison(uint64(i)+1, 150000, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Comparison.PowerLawLogSSE, "powerlaw-sse")
	b.ReportMetric(last.Comparison.CompetitorLogSSE, "zm-sse")
}

func TestRunFigure3SinglePanel(t *testing.T) {
	// The full-size panels run in the root BenchmarkFigure3; one
	// scaled-down panel here keeps the unit-test cycle fast.
	spec := netgenPanel(t)
	res, err := runFigure3Panel(&scenario.Context{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.FitAlpha <= 1 || res.FitAlpha > 4 {
		t.Errorf("fit alpha = %v", res.FitAlpha)
	}
	if res.FracD1 <= 0 {
		t.Error("no degree-1 mass")
	}
	var mass float64
	for _, v := range res.MeanD {
		mass += v
	}
	if math.Abs(mass-1) > 1e-6 {
		t.Errorf("mean pooled mass = %v", mass)
	}
	if len(res.SigmaD) != len(res.MeanD) {
		t.Error("sigma/mean length mismatch")
	}
	if s := res.Summary(); len(s) == 0 {
		t.Error("empty summary")
	}
}
