// Package experiments regenerates every table and figure of the paper
// (see DESIGN.md §2 for the experiment index). Each experiment is
// registered as a declarative scenario (see Scenarios) consumed by the
// scenario engine behind cmd/palu-figures and EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"hybridplaw/internal/estimate"
	"hybridplaw/internal/graph"
	"hybridplaw/internal/model"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/powerlaw"
	"hybridplaw/internal/scenario"
	"hybridplaw/internal/spmat"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

// defaultParams is the reference PALU parameter set used by experiments
// that need a concrete network: a leaf- and star-rich mix in the paper's
// reported regime.
func defaultParams() palu.Params {
	p, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		panic(err)
	}
	return p
}

// TableIResult verifies the Table I aggregate identities on a synthetic
// window: the summation-notation and matrix-notation forms must agree,
// and the values are reported for the record.
type TableIResult struct {
	Aggregates spmat.Aggregates
	// TransposeConsistent records that unique sources/destinations swap
	// under transposition.
	TransposeConsistent bool
	// ParallelConsistent records that the parallel builder reproduced the
	// serial aggregates.
	ParallelConsistent bool
	// StreamConsistent records that the pipeline's incrementally
	// maintained aggregates match the frozen matrix's Table I.
	StreamConsistent bool
}

// runTableI is the "table1" scenario compute: it streams one traffic
// window through the pipeline and evaluates Table I three ways:
// incremental (builder), summation/matrix notation (frozen matrix), and
// the parallel shard-merge rebuild.
func runTableI(ctx *scenario.Context, seed uint64, nv int64) (TableIResult, error) {
	win, err := pipelineWindow(ctx, tableISite(seed), nv, true, stream.ReadAggregates)
	if err != nil {
		return TableIResult{}, err
	}
	m := win.Matrix
	agg := m.TableI()
	mt := m.Transpose()
	res := TableIResult{Aggregates: agg}
	res.TransposeConsistent = mt.UniqueSources() == agg.UniqueDestinations &&
		mt.UniqueDestinations() == agg.UniqueSources &&
		mt.ValidPackets() == agg.ValidPackets &&
		mt.UniqueLinks() == agg.UniqueLinks
	res.ParallelConsistent = spmat.ParallelBuild(m.Entries(), 0).TableI() == agg
	res.StreamConsistent = win.Aggregates == agg
	return res, nil
}

// windowCollector retains every WindowResult of a run, as
// stream.ResultCollector does, and declares what its caller reads of
// them, so the run reduces only that.
type windowCollector struct {
	stream.ResultCollector
	reads stream.ReadSet
}

// Reads implements stream.DeclaredSink.
func (c *windowCollector) Reads() stream.ReadSet { return c.reads }

// pipelineWindow streams exactly one window of nv valid packets off a
// site through the pipeline (via the context's window cache when the
// scenario engine provides one), reducing only what reads names.
func pipelineWindow(ctx *scenario.Context, site netgen.SiteConfig, nv int64, keepMatrix bool, reads stream.ReadSet) (*stream.WindowResult, error) {
	collector := &windowCollector{reads: reads}
	req := scenario.WindowReq{Site: site, NV: nv, Windows: 1}
	if _, err := ctx.Stream(req, stream.PipelineConfig{KeepMatrices: keepMatrix}, collector); err != nil {
		return nil, err
	}
	if len(collector.Results) == 0 {
		return nil, stream.ErrShortStream
	}
	return collector.Results[0], nil
}

func tableISite(seed uint64) netgen.SiteConfig {
	return netgen.SiteConfig{
		Name: "tableI", Params: defaultParams(), Nodes: 30000, P: 0.5,
		WeightAlpha: 2.1, WeightDelta: 0, MaxWeight: 1024,
		InvalidFraction: 0.02, Seed: seed,
	}
}

// Figure1Result summarizes the five streaming quantities of one window.
type Figure1Result struct {
	NV        int64
	Quantity  []string
	Total     []int64 // observations per quantity histogram
	MaxDegree []int   // dmax per quantity (Eq. (1))
	FracD1    []float64
}

// runFigure1 is the "fig1" scenario compute: all five Fig. 1 quantities
// of one window, in one streaming pass through the pipeline.
func runFigure1(ctx *scenario.Context, seed uint64, nv int64) (Figure1Result, error) {
	win, err := pipelineWindow(ctx, tableISite(seed), nv, false, stream.ReadHists(stream.Quantities...))
	if err != nil {
		return Figure1Result{}, err
	}
	res := Figure1Result{NV: nv}
	for _, q := range stream.Quantities {
		h := win.Hists[q]
		res.Quantity = append(res.Quantity, q.String())
		res.Total = append(res.Total, h.Total())
		res.MaxDegree = append(res.MaxDegree, h.MaxDegree())
		res.FracD1 = append(res.FracD1, h.FractionDegreeOne())
	}
	return res, nil
}

// Figure2Result is the quantitative Fig. 2 decomposition of an observed
// PALU network, with the analytic expectations alongside.
type Figure2Result struct {
	Topology graph.Topology
	// ObservedUnattachedLinkFrac and ExpectedUnattachedLinkFrac compare the
	// unattached-link density against Section IV.
	ObservedUnattachedLinkFrac, ExpectedUnattachedLinkFrac float64
	// VisibleNodes counts nodes with degree >= 1.
	VisibleNodes int64
}

// RunFigure2 generates a PALU network, observes it, and decomposes the
// observed topology into the Fig. 2 categories.
func RunFigure2(seed uint64) (Figure2Result, error) {
	params := defaultParams()
	rng := xrand.New(seed)
	u, err := palu.Generate(params, palu.GenerateOptions{N: 200000}, rng)
	if err != nil {
		return Figure2Result{}, err
	}
	const p = 0.45
	obs, err := u.Observe(p, rng)
	if err != nil {
		return Figure2Result{}, err
	}
	topo := obs.DecomposeTopology()
	counts, err := u.CountObserved(obs)
	if err != nil {
		return Figure2Result{}, err
	}
	o, err := palu.NewObservation(params, p)
	if err != nil {
		return Figure2Result{}, err
	}
	fr := o.ExpectedFractions(true)
	res := Figure2Result{
		Topology:     topo,
		VisibleNodes: counts.Total,
	}
	if counts.Total > 0 {
		res.ObservedUnattachedLinkFrac = float64(counts.UnattachedLinks) / float64(counts.Total)
	}
	res.ExpectedUnattachedLinkFrac = fr.UnattachedLinks
	return res, nil
}

// Figure3PanelResult is the reproduction of one Fig. 3 panel.
type Figure3PanelResult struct {
	Spec netgen.PanelSpec
	// MeanD and SigmaD are the cross-window pooled distribution and its
	// ±1σ band (the blue circles and error bars of Fig. 3).
	MeanD, SigmaD []float64
	// Fit is the best modified Zipf–Mandelbrot fit (the black line).
	FitAlpha, FitDelta, FitSSE, FitKS float64
	// DMax is the largest observed value of the quantity.
	DMax int
	// FracD1 is the mean observed D(d=1).
	FracD1 float64
}

// panelEnsemble streams a Fig. 3 panel's windows into a cross-window
// ensemble of its quantity, once per engine run: fig3/<panel> and
// modelsel/<panel> both read it.
func panelEnsemble(ctx *scenario.Context, spec netgen.PanelSpec) (*stream.EnsembleSink, error) {
	req := scenario.WindowReq{Site: spec.Site, NV: spec.NV, Windows: spec.Windows}
	return scenario.Memo(ctx, req, "ensemble/"+spec.Quantity.String(), func() (*stream.EnsembleSink, error) {
		sink := stream.NewEnsembleSink(spec.Quantity)
		if _, err := ctx.Stream(req, stream.PipelineConfig{}, sink); err != nil {
			return nil, err
		}
		return sink, nil
	})
}

// runFigure3Panel is the "fig3/<id>" scenario compute: the panel's
// cross-window ensemble (synthetic packet source → pipeline → ensemble
// sink, one window resident at a time) and its ZM fit.
func runFigure3Panel(ctx *scenario.Context, spec netgen.PanelSpec) (Figure3PanelResult, error) {
	sink, err := panelEnsemble(ctx, spec)
	if err != nil {
		return Figure3PanelResult{}, err
	}
	ens, merged := sink.Ensemble(spec.Quantity), sink.Merged(spec.Quantity)
	fit, err := ctx.FitMetrics().TimeZMFit(func() (zipfmand.FitResult, error) {
		return zipfmand.FitEnsemble(ens, merged, zipfmand.DefaultFitOptions())
	})
	if err != nil {
		return Figure3PanelResult{}, err
	}
	mean := ens.Mean()
	return Figure3PanelResult{
		Spec: spec, MeanD: mean, SigmaD: ens.Sigma(),
		FitAlpha: fit.Alpha, FitDelta: fit.Delta, FitSSE: fit.SSE, FitKS: fit.KS,
		DMax: merged.MaxDegree(), FracD1: mean[0],
	}, nil
}

// Figure4Panel is one Fig. 4 sub-figure specification.
type Figure4Panel struct {
	Alpha, Delta float64
	Rs           []float64
}

// Figure4Spec returns the five published panels of Fig. 4 verbatim.
func Figure4Spec() []Figure4Panel {
	return []Figure4Panel{
		{1.1, -0.5, []float64{1.01, 1.1, 1.2, 1.4, 1.8, 2, 3, 5}},
		{1.5, -0.6, []float64{1.01, 1.1, 1.2, 1.5, 2, 4, 11}},
		{2.0, -0.75, []float64{1.05, 1.2, 1.8, 3, 6, 12, 35}},
		{2.5, -0.75, []float64{1.01, 1.05, 1.2, 1.8, 5, 20, 70}},
		{2.9, -0.8, []float64{1.01, 1.05, 1.2, 1.8, 5, 30, 200}},
	}
}

// Figure4PanelResult holds the ZM reference curve and the PALU curve
// family of one panel, all as pooled differential cumulative
// distributions over 1..DMax.
type Figure4PanelResult struct {
	Panel Figure4Panel
	DMax  int
	ZM    []float64
	// PALU[i] is the pooled curve for Panel.Rs[i].
	PALU [][]float64
	// BestSupLog10 is the best (over r) worst-case |log10 PALU − log10 ZM|
	// across bins: the "PALU tends towards ZM" metric.
	BestSupLog10 float64
}

// RunFigure4Panel computes one panel. dmax <= 0 selects the paper's 1e6
// degree range (2^20 in binary pooling).
func RunFigure4Panel(panel Figure4Panel, dmax int) (Figure4PanelResult, error) {
	if dmax <= 0 {
		dmax = 1 << 20
	}
	zm := zipfmand.Model{Alpha: panel.Alpha, Delta: panel.Delta}
	zmD, err := zm.PooledD(dmax)
	if err != nil {
		return Figure4PanelResult{}, err
	}
	family := make([][]float64, len(panel.Rs))
	for i, r := range panel.Rs {
		pd, err := palu.Curve{Alpha: panel.Alpha, Delta: panel.Delta, R: r}.PooledD(dmax)
		if err != nil {
			return Figure4PanelResult{}, fmt.Errorf("r=%v: %w", r, err)
		}
		family[i] = pd
	}
	res := Figure4PanelResult{Panel: panel, DMax: dmax, ZM: zmD, PALU: family, BestSupLog10: math.Inf(1)}
	for _, pd := range family {
		var worst float64
		for i := range pd {
			if i >= len(zmD) || zmD[i] <= 0 || pd[i] <= 0 {
				continue
			}
			d := math.Abs(math.Log10(pd[i]) - math.Log10(zmD[i]))
			if d > worst {
				worst = d
			}
		}
		if worst < res.BestSupLog10 {
			res.BestSupLog10 = worst
		}
	}
	return res, nil
}

// ValidationRow compares one analytic prediction with simulation (E-V1).
type ValidationRow struct {
	Name                string
	Analytic, Simulated float64
	RelErr              float64
	// ExpectedCount is the analytic expected observation count behind the
	// statistic, which sets the Monte-Carlo standard error
	// (≈ 1/√ExpectedCount relative).
	ExpectedCount float64
}

// RunValidation generates a PALU network via the fast sampler and compares
// degree fractions and the visible total against Section IV (exact mode).
func RunValidation(seed uint64, n int) ([]ValidationRow, error) {
	if n <= 0 {
		n = 400000
	}
	params := defaultParams()
	const p = 0.5
	rng := xrand.New(seed)
	h, err := palu.FastObservedHistogram(params, n, p, rng)
	if err != nil {
		return nil, err
	}
	o, err := palu.NewObservation(params, p)
	if err != nil {
		return nil, err
	}
	total := float64(h.Total())
	var rows []ValidationRow
	for _, d := range []int{1, 2, 3, 5, 8, 16} {
		want, err := o.DegreeFraction(d, true)
		if err != nil {
			return nil, err
		}
		got := float64(h.Count(d)) / total
		rows = append(rows, ValidationRow{
			Name: fmt.Sprintf("degree-%d fraction", d), Analytic: want,
			Simulated: got, RelErr: relErr(got, want),
			ExpectedCount: want * total,
		})
	}
	wantTotal := o.VisibleFractionExact() * float64(n)
	rows = append(rows, ValidationRow{
		Name: "visible nodes", Analytic: wantTotal, Simulated: total,
		RelErr: relErr(total, wantTotal), ExpectedCount: wantTotal,
	})
	return rows, nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// RecoveryResult reports estimator recovery of reduced constants (E-R1).
type RecoveryResult struct {
	TrueConstants, Estimated  palu.Constants
	AlphaErr, MuErr           float64
	CRelErr, URelErr, LRelErr float64
}

// RunRecovery samples a PALU observation and runs the Section IV.B
// pipeline against the exact constants.
func RunRecovery(seed uint64, n int) (RecoveryResult, error) {
	if n <= 0 {
		n = 1000000
	}
	params := defaultParams()
	const p = 0.5
	rng := xrand.New(seed)
	h, err := palu.FastObservedHistogram(params, n, p, rng)
	if err != nil {
		return RecoveryResult{}, err
	}
	o, err := palu.NewObservation(params, p)
	if err != nil {
		return RecoveryResult{}, err
	}
	truth, err := o.ReducedConstants(true)
	if err != nil {
		return RecoveryResult{}, err
	}
	est, err := estimate.Estimate(h, estimate.DefaultOptions())
	if err != nil {
		return RecoveryResult{}, err
	}
	return RecoveryResult{
		TrueConstants: truth,
		Estimated:     est.Constants(),
		AlphaErr:      math.Abs(est.Alpha - truth.Alpha),
		MuErr:         math.Abs(est.Mu - truth.Mu),
		CRelErr:       relErr(est.C, truth.C),
		URelErr:       relErr(est.U, truth.U),
		LRelErr:       relErr(est.L, truth.L),
	}, nil
}

// WindowInvarianceResult verifies the Section III invariance claim (E-X1).
type WindowInvarianceResult struct {
	Ps []float64
	// PerWindow are the single-window estimates at each p.
	PerWindow []estimate.Result
	// Joint is the lifted underlying parameter set.
	Joint estimate.JointResult
	// Diag carries the scaling diagnostics (c/l slope vs α−2, λ CV).
	Diag estimate.ScalingDiagnostics
	// TrueParams echoes the generating parameters.
	TrueParams palu.Params
}

// RunWindowInvariance observes one underlying model at several p values,
// estimates each window, and lifts to underlying parameters.
func RunWindowInvariance(seed uint64, n int) (WindowInvarianceResult, error) {
	if n <= 0 {
		n = 1500000
	}
	params := defaultParams()
	ps := []float64{0.3, 0.45, 0.6, 0.75, 0.9}
	rng := xrand.New(seed)
	res := WindowInvarianceResult{Ps: ps, TrueParams: params}
	var wins []estimate.WindowEstimate
	for _, p := range ps {
		h, err := palu.FastObservedHistogram(params, n, p, rng.Split())
		if err != nil {
			return WindowInvarianceResult{}, err
		}
		est, err := estimate.Estimate(h, estimate.DefaultOptions())
		if err != nil {
			return WindowInvarianceResult{}, fmt.Errorf("p=%v: %w", p, err)
		}
		res.PerWindow = append(res.PerWindow, est)
		wins = append(wins, estimate.WindowEstimate{Result: est, P: p})
	}
	joint, err := estimate.Joint(wins)
	if err != nil {
		return WindowInvarianceResult{}, err
	}
	diag, err := estimate.Scaling(wins)
	if err != nil {
		return WindowInvarianceResult{}, err
	}
	res.Joint = joint
	res.Diag = diag
	return res, nil
}

// BaselineComparisonResult contrasts the single power law with the
// modified ZM on leaf-heavy synthetic data (E-X2).
type BaselineComparisonResult struct {
	Comparison       powerlaw.Comparison
	ZMAlpha, ZMDelta float64
}

// baselineComparison fits both models to a PALU observation of n
// draws, with its zm fit timed by m (nil for none).
func baselineComparison(seed uint64, n int, m *model.Metrics) (BaselineComparisonResult, error) {
	if n <= 0 {
		n = 300000
	}
	params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		return BaselineComparisonResult{}, err
	}
	rng := xrand.New(seed)
	h, err := palu.FastObservedHistogram(params, n, 0.7, rng)
	if err != nil {
		return BaselineComparisonResult{}, err
	}
	zmFit, err := m.TimeZMFit(func() (zipfmand.FitResult, error) {
		fit, _, err := zipfmand.FitHistogram(h, zipfmand.DefaultFitOptions())
		return fit, err
	})
	if err != nil {
		return BaselineComparisonResult{}, err
	}
	cmp, err := powerlaw.Compare(h, zmFit.SSE)
	if err != nil {
		return BaselineComparisonResult{}, err
	}
	return BaselineComparisonResult{
		Comparison: cmp, ZMAlpha: zmFit.Alpha, ZMDelta: zmFit.Delta,
	}, nil
}

// DirectedAblationResult verifies the Section III directionality claim
// (E-X3): in/out/total tail exponents agree and the out-amplitude scales
// as q^{α−1}.
type DirectedAblationResult struct {
	TotalAlpha, InAlpha, OutAlpha float64
	// AmplitudeRatio is the measured out/total tail-count ratio; Predicted
	// is q^{α−1}.
	AmplitudeRatio, Predicted float64
}

// RunDirectedAblation samples a directed observation and compares the
// three degree views.
func RunDirectedAblation(seed uint64, n int) (DirectedAblationResult, error) {
	if n <= 0 {
		n = 1000000
	}
	params := defaultParams()
	const p, q = 0.5, 0.5
	rng := xrand.New(seed)
	dh, err := palu.FastDirectedHistograms(params, n, p, q, rng)
	if err != nil {
		return DirectedAblationResult{}, err
	}
	var res DirectedAblationResult
	total, err := estimate.Estimate(dh.Total, estimate.DefaultOptions())
	if err != nil {
		return DirectedAblationResult{}, err
	}
	in, err := estimate.Estimate(dh.In, estimate.DefaultOptions())
	if err != nil {
		return DirectedAblationResult{}, err
	}
	out, err := estimate.Estimate(dh.Out, estimate.DefaultOptions())
	if err != nil {
		return DirectedAblationResult{}, err
	}
	res.TotalAlpha, res.InAlpha, res.OutAlpha = total.Alpha, in.Alpha, out.Alpha
	res.Predicted, err = palu.DirectedTailAmplitudeRatio(params.Alpha, q)
	if err != nil {
		return DirectedAblationResult{}, err
	}
	var got, want float64
	for d := 16; d <= 64; d++ {
		ct := dh.Total.Count(d)
		if ct == 0 {
			continue
		}
		got += float64(dh.Out.Count(d))
		want += float64(ct)
	}
	if want > 0 {
		res.AmplitudeRatio = got / want
	}
	return res, nil
}

// WeightedExtensionResult exercises the Section VII weighted-edge
// extension (E-X4): the packet-degree tail must follow the heavier of the
// degree and weight laws.
type WeightedExtensionResult struct {
	DegreeAlpha, PacketAlpha, PredictedPacketAlpha float64
	MeanWeight                                     float64
}

// RunWeightedExtension samples a weighted observation and fits both tails.
func RunWeightedExtension(seed uint64, n int) (WeightedExtensionResult, error) {
	if n <= 0 {
		n = 600000
	}
	params, err := palu.FromWeights(3, 1, 0.5, 1.5, 2.6)
	if err != nil {
		return WeightedExtensionResult{}, err
	}
	wm := palu.WeightModel{Alpha: 1.9, Delta: 0, MaxWeight: 1 << 14}
	rng := xrand.New(seed)
	wh, err := palu.FastWeightedHistograms(params, n, 0.6, wm, rng)
	if err != nil {
		return WeightedExtensionResult{}, err
	}
	deg, err := estimate.Estimate(wh.Degree, estimate.DefaultOptions())
	if err != nil {
		return WeightedExtensionResult{}, err
	}
	pk, err := estimate.Estimate(wh.PacketDegree, estimate.DefaultOptions())
	if err != nil {
		return WeightedExtensionResult{}, err
	}
	mean, err := wm.Mean()
	if err != nil {
		return WeightedExtensionResult{}, err
	}
	return WeightedExtensionResult{
		DegreeAlpha:          deg.Alpha,
		PacketAlpha:          pk.Alpha,
		PredictedPacketAlpha: palu.ExpectedPacketDegreeTailExponent(params, wm),
		MeanWeight:           mean,
	}, nil
}

// Summary renders the one-line textual summary of a Figure3 panel result
// (newline-terminated, per the scenario.Result convention).
func (r Figure3PanelResult) Summary() string {
	return fmt.Sprintf("%-32s NV=%-8d fit α=%.2f δ=%.3f (paper α=%.2f δ=%.3f) D(1)=%.3f dmax=%d\n",
		r.Spec.ID, r.Spec.NV, r.FitAlpha, r.FitDelta,
		r.Spec.PaperAlpha, r.Spec.PaperDelta, r.FracD1, r.DMax)
}

// Summary renders the validation rows as an aligned table.
func ValidationSummary(rows []ValidationRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s analytic=%-12.6g simulated=%-12.6g relerr=%.3f\n",
			r.Name, r.Analytic, r.Simulated, r.RelErr)
	}
	return b.String()
}
