// Benchmarks regenerating every table and figure of the paper (DESIGN.md
// §2) plus the ablations of design choices. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports domain-specific metrics (fitted parameters,
// recovery errors) via b.ReportMetric so bench output doubles as the
// experiment record behind EXPERIMENTS.md.
package hybridplaw

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"hybridplaw/internal/estimate"
	"hybridplaw/internal/experiments"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/scenario"
	"hybridplaw/internal/spmat"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/tracestore"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

// benchScenario runs the registered suite scenario name (seed 1) b.N
// times through an uncached engine, the way palu-figures -only runs it,
// and returns the last run's result.
func benchScenario(b *testing.B, name string) scenario.Result {
	b.Helper()
	reg := experiments.MustRegistry(1)
	out := b.TempDir()
	var res scenario.Result
	for i := 0; i < b.N; i++ {
		eng, err := scenario.NewEngine(reg, scenario.Config{OutDir: out})
		if err != nil {
			b.Fatal(err)
		}
		reports, err := eng.Run(name)
		if err != nil {
			b.Fatal(err)
		}
		res = reports[0].Result
	}
	return res
}

// BenchmarkTableI regenerates Table I: aggregate network properties of a
// traffic window, verifying the summation and matrix notations agree.
func BenchmarkTableI(b *testing.B) {
	res := benchScenario(b, "table1").(experiments.TableIResult)
	if !res.TransposeConsistent || !res.ParallelConsistent {
		b.Fatal("Table I identities violated")
	}
}

// BenchmarkFigure1 regenerates the Fig. 1 streaming quantities of a
// window.
func BenchmarkFigure1(b *testing.B) {
	res := benchScenario(b, "fig1").(experiments.Figure1Result)
	if len(res.Quantity) != 5 {
		b.Fatal("missing quantities")
	}
}

// BenchmarkFigure2 regenerates the Fig. 2 topology decomposition.
func BenchmarkFigure2(b *testing.B) {
	var last experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure2(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Topology.UnattachedLinks), "unattached-links")
	b.ReportMetric(float64(last.Topology.SupernodeDegree), "supernode-degree")
}

// BenchmarkFigure3 regenerates each Fig. 3 panel: synthetic observatory →
// fixed-NV windows → pooled ensemble → modified ZM fit. The fitted α and
// δ are reported next to the paper's values (recorded in EXPERIMENTS.md).
func BenchmarkFigure3(b *testing.B) {
	for _, spec := range netgen.Figure3Panels() {
		spec := spec
		b.Run(spec.ID, func(b *testing.B) {
			res := benchScenario(b, "fig3/"+spec.ID).(experiments.Figure3PanelResult)
			b.ReportMetric(res.FitAlpha, "fit-alpha")
			b.ReportMetric(res.FitDelta, "fit-delta")
			b.ReportMetric(res.Spec.PaperAlpha, "paper-alpha")
			b.ReportMetric(res.Spec.PaperDelta, "paper-delta")
		})
	}
}

// BenchmarkFigure4 regenerates each Fig. 4 curve-family panel over the
// paper's full 10^6 degree range and reports how closely the best family
// member approaches the Zipf–Mandelbrot reference.
func BenchmarkFigure4(b *testing.B) {
	for _, panel := range experiments.Figure4Spec() {
		panel := panel
		b.Run(fmt.Sprintf("alpha=%.1f", panel.Alpha), func(b *testing.B) {
			var last experiments.Figure4PanelResult
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFigure4Panel(panel, 1<<20)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.BestSupLog10, "best-sup-log10")
		})
	}
}

// BenchmarkValidation regenerates the E-V1 analytic-vs-simulation check.
func BenchmarkValidation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunValidation(uint64(i)+1, 300000)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.RelErr > worst {
				worst = r.RelErr
			}
		}
	}
	b.ReportMetric(worst, "worst-relerr")
}

// BenchmarkRecovery regenerates the E-R1 estimator-recovery experiment.
func BenchmarkRecovery(b *testing.B) {
	var last experiments.RecoveryResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRecovery(uint64(i)+1, 500000)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.AlphaErr, "alpha-abs-err")
	b.ReportMetric(last.MuErr, "mu-abs-err")
	b.ReportMetric(last.CRelErr, "c-rel-err")
}

// BenchmarkWindowInvariance regenerates E-X1: one underlying network
// observed at several p, per-window estimation, joint lift.
func BenchmarkWindowInvariance(b *testing.B) {
	var last experiments.WindowInvarianceResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWindowInvariance(uint64(i)+1, 600000)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Joint.AlphaSpread, "alpha-spread")
	b.ReportMetric(math.Abs(last.Joint.Params.Lambda-last.TrueParams.Lambda), "lambda-abs-err")
}

// BenchmarkDirectedAblation regenerates E-X3: the Section III claim that
// directionality has a small impact on the degree-distribution analysis.
func BenchmarkDirectedAblation(b *testing.B) {
	var last experiments.DirectedAblationResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDirectedAblation(uint64(i)+1, 600000)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(math.Abs(last.TotalAlpha-last.OutAlpha), "alpha-shift")
	b.ReportMetric(last.AmplitudeRatio/last.Predicted, "amp-ratio-vs-pred")
}

// BenchmarkWeightedExtension regenerates E-X4: the Section VII weighted-
// edge extension (packet-degree tail follows the heavier law).
func BenchmarkWeightedExtension(b *testing.B) {
	var last experiments.WeightedExtensionResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWeightedExtension(uint64(i)+1, 400000)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.PacketAlpha, "packet-alpha")
	b.ReportMetric(last.PredictedPacketAlpha, "predicted-alpha")
}

// BenchmarkTraceReplay contrasts replaying the same archived 1M-packet
// trace through the full measurement pipeline from the trace CSV and
// from the PTRC reader: the exact sizes and throughputs behind the
// bounds asserted by TestPTRCSizeBound and TestPTRCReplaySpeedup.
func BenchmarkTraceReplay(b *testing.B) {
	if err := buildReplayTrace(); err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B, fileBytes int) {
		b.ReportMetric(float64(replayTrace.n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpackets/s")
		b.ReportMetric(float64(fileBytes)/float64(replayTrace.n), "bytes/packet")
	}
	b.Run("csv", func(b *testing.B) {
		b.SetBytes(int64(len(replayTrace.csv)))
		for i := 0; i < b.N; i++ {
			stats, err := replayPipeline(stream.NewCSVSource(bytes.NewReader(replayTrace.csv)))
			if err != nil {
				b.Fatal(err)
			}
			if stats.Windows != 10 {
				b.Fatalf("windows = %d", stats.Windows)
			}
		}
		report(b, len(replayTrace.csv))
	})
	b.Run("ptrc-sequential", func(b *testing.B) {
		b.SetBytes(int64(len(replayTrace.ptrc)))
		for i := 0; i < b.N; i++ {
			src, err := tracestore.NewReader(bytes.NewReader(replayTrace.ptrc))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := replayPipeline(src); err != nil {
				b.Fatal(err)
			}
		}
		report(b, len(replayTrace.ptrc))
		b.ReportMetric(float64(len(replayTrace.ptrc))/float64(len(replayTrace.csv)), "ptrc/csv-size")
	})
}

// BenchmarkScenarioEngine contrasts serial and parallel scheduling of
// the same synthetic scenario suite (CPU-bound units, no I/O): the
// wall-clock record behind the engine's hardware-aware speedup test.
// Like every parallel-vs-serial number in this file it is reported, not
// asserted — acceptance floors live in the tests, tiered by NumCPU.
func BenchmarkScenarioEngine(b *testing.B) {
	const units = 8
	buildRegistry := func() *ScenarioRegistry {
		reg := scenario.NewRegistry()
		for i := 0; i < units; i++ {
			i := i
			if err := reg.Register(Scenario{
				Name: fmt.Sprintf("burn%d", i), Title: "burn",
				Run: func(*ScenarioContext) (ScenarioResult, error) {
					h := uint64(i) + 0x9e3779b97f4a7c15
					for k := 0; k < 4_000_000; k++ {
						h ^= h >> 33
						h *= 0xff51afd7ed558ccd
					}
					return benchScenarioResult(fmt.Sprintf("%016x", h)), nil
				},
			}); err != nil {
				b.Fatal(err)
			}
		}
		return reg
	}
	for _, workers := range []int{1, 0} { // 1 = serial, 0 = GOMAXPROCS
		name := "serial"
		if workers != 1 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := NewScenarioEngine(buildRegistry(), ScenarioConfig{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				reports, err := eng.Run()
				if err != nil {
					b.Fatal(err)
				}
				if len(reports) != units {
					b.Fatalf("reports = %d", len(reports))
				}
			}
			b.ReportMetric(float64(units)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
		})
	}
}

// benchScenarioResult is a minimal ScenarioResult for benchmarks.
type benchScenarioResult string

func (r benchScenarioResult) Summary() string { return string(r) + "\n" }

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationAggregation contrasts serial and parallel traffic-
// matrix construction (the D4M-style shard/merge path).
func BenchmarkAblationAggregation(b *testing.B) {
	r := xrand.New(1)
	entries := make([]spmat.Entry, 1<<18)
	for i := range entries {
		entries[i] = spmat.Entry{
			Src: uint32(r.Intn(1 << 14)), Dst: uint32(r.Intn(1 << 14)), Count: 1,
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spmat.ParallelBuild(entries, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spmat.ParallelBuild(entries, 0)
		}
	})
}

// BenchmarkAblationZetaSampling contrasts the exact Devroye rejection
// sampler with a truncated alias-table sampler for core degrees.
func BenchmarkAblationZetaSampling(b *testing.B) {
	const alpha = 2.0
	b.Run("devroye", func(b *testing.B) {
		r := xrand.New(1)
		z := xrand.NewZetaSampler(alpha)
		for i := 0; i < b.N; i++ {
			if _, err := z.Draw(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alias-truncated", func(b *testing.B) {
		m := zipfmand.Model{Alpha: alpha, Delta: 0}
		pmf, err := m.PMF(1 << 16)
		if err != nil {
			b.Fatal(err)
		}
		alias, err := xrand.NewAlias(pmf)
		if err != nil {
			b.Fatal(err)
		}
		r := xrand.New(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			alias.Draw(r)
		}
	})
}

// BenchmarkAblationEstimatorVariants contrasts the Section IV.B estimator
// choices: pooled vs point-wise tail fit and moment vs regression u.
func BenchmarkAblationEstimatorVariants(b *testing.B) {
	params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	h, err := palu.FastObservedHistogram(params, 500000, 0.5, xrand.New(7))
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opts estimate.Options
	}{
		{"pooled-momentU", estimate.Options{TailMinDegree: 10, TailPooled: true, SumMaxDegree: 128, MomentU: true}},
		{"pooled-regressU", estimate.Options{TailMinDegree: 10, TailPooled: true, SumMaxDegree: 128, MomentU: false}},
		{"pointwise-momentU", estimate.Options{TailMinDegree: 10, TailPooled: false, SumMaxDegree: 128, MomentU: true}},
	}
	o, err := palu.NewObservation(params, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := o.ReducedConstants(true)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var last estimate.Result
			for i := 0; i < b.N; i++ {
				res, err := estimate.Estimate(h, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(math.Abs(last.Alpha-truth.Alpha), "alpha-abs-err")
			b.ReportMetric(math.Abs(last.Mu-truth.Mu), "mu-abs-err")
		})
	}
}

// BenchmarkAblationFitObjective contrasts log-space and linear-space ZM
// fit objectives on the same pooled data.
func BenchmarkAblationFitObjective(b *testing.B) {
	truth := zipfmand.Model{Alpha: 2.01, Delta: -0.833}
	pd, err := truth.PooledD(1 << 15)
	if err != nil {
		b.Fatal(err)
	}
	obs := &Pooled{D: pd, Total: 1 << 20}
	for _, logSpace := range []bool{true, false} {
		name := "linear"
		if logSpace {
			name = "log"
		}
		b.Run(name, func(b *testing.B) {
			var last zipfmand.FitResult
			for i := 0; i < b.N; i++ {
				res, err := zipfmand.Fit(obs, 1<<15, zipfmand.FitOptions{LogSpace: logSpace})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(math.Abs(last.Alpha-truth.Alpha), "alpha-abs-err")
			b.ReportMetric(math.Abs(last.Delta-truth.Delta), "delta-abs-err")
		})
	}
}

// BenchmarkFastVsGraphGeneration contrasts the two PALU generators at the
// same node budget (the graph path materializes every edge).
func BenchmarkFastVsGraphGeneration(b *testing.B) {
	params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast-histogram", func(b *testing.B) {
		r := xrand.New(1)
		for i := 0; i < b.N; i++ {
			if _, err := palu.FastObservedHistogram(params, 100000, 0.5, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("graph", func(b *testing.B) {
		r := xrand.New(1)
		for i := 0; i < b.N; i++ {
			u, err := palu.Generate(params, palu.GenerateOptions{N: 100000}, r)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := u.Observe(0.5, r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
