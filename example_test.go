package hybridplaw_test

import (
	"errors"
	"fmt"
	"log"
	"os"

	"hybridplaw"
)

// The body of every Example that README.md shows is quoted there
// verbatim (TestFacadeSurface checks it). The Examples with an Output
// line run under go test; the others stream 1e8 packets, touch files or
// run the paper suite, so go test only compiles them.

func Example() {
	params, _ := hybridplaw.PALUFromWeights(2, 2, 1.5, 2.5, 2.0)
	rng := hybridplaw.NewRNG(1)
	hist, _ := hybridplaw.FastObservedHistogram(params, 1_000_000, 0.5, rng)
	fit, _, _ := hybridplaw.FitZipfMandelbrot(hist)
	fmt.Printf("alpha=%.2f delta=%.3f\n", fit.Alpha, fit.Delta)
	// Output:
	// alpha=2.02 delta=-0.588
}

func ExampleRunPipeline() {
	params, _ := hybridplaw.PALUFromWeights(2, 2, 1.5, 2.5, 2.0)
	site, _ := hybridplaw.NewSite(hybridplaw.SiteConfig{
		Name: "observatory", Params: params, Nodes: 50000, P: 0.5,
		WeightAlpha: 2.1, MaxWeight: 4096, InvalidFraction: 0.02, Seed: 7,
	})

	// Accumulate the cross-window source fan-out ensemble in O(log dmax)
	// memory while streaming 100 windows of 1e6 valid packets each.
	sink := hybridplaw.NewEnsembleSink(hybridplaw.SourceFanOut)
	stats, err := hybridplaw.RunPipeline(site.PacketSource(), hybridplaw.PipelineConfig{
		NV: 1_000_000, MaxWindows: 100,
	}, sink)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("windows=%d invalid filtered=%d\n", stats.Windows, stats.InvalidPackets)

	// Fit the modified Zipf–Mandelbrot model to the cross-window mean
	// (the Fig. 3 fit line); a nil Starts selects the default starts.
	ens, merged := sink.Ensemble(hybridplaw.SourceFanOut), sink.Merged(hybridplaw.SourceFanOut)
	mean := &hybridplaw.Pooled{D: ens.Mean(), Total: merged.Total()}
	fit, _ := hybridplaw.FitZipfMandelbrotPooled(mean, merged.MaxDegree(),
		hybridplaw.ZMFitOptions{LogSpace: true})
	fmt.Printf("alpha=%.2f delta=%.3f\n", fit.Alpha, fit.Delta)
}

func ExampleNewCSVSource() {
	f, err := os.Open("trace.csv")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	sink := hybridplaw.NewEnsembleSink(hybridplaw.SourceFanOut)
	stats, err := hybridplaw.RunPipeline(hybridplaw.NewCSVSource(f),
		hybridplaw.PipelineConfig{NV: 100_000}, sink)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("windows=%d\n", stats.Windows)
}

func ExampleRecordTrace() {
	params, _ := hybridplaw.PALUFromWeights(2, 2, 1.5, 2.5, 2.0)
	site, _ := hybridplaw.NewSite(hybridplaw.SiteConfig{
		Name: "observatory", Params: params, Nodes: 50000, P: 0.5,
		WeightAlpha: 2.1, MaxWeight: 4096, InvalidFraction: 0.02, Seed: 7,
	})

	// Record 10 windows of traffic, then replay them bit-identically.
	out, _ := os.Create("trace.ptrc")
	n, _ := hybridplaw.RecordTrace(out,
		hybridplaw.TakeValidPackets(site.PacketSource(), 10*1_000_000),
		hybridplaw.TraceWriterOptions{})
	out.Close()

	in, _ := os.Open("trace.ptrc")
	defer in.Close()
	src, _ := hybridplaw.NewTraceReader(in)
	sink := hybridplaw.NewEnsembleSink(hybridplaw.SourceFanOut)
	stats, err := hybridplaw.RunPipeline(src, hybridplaw.PipelineConfig{NV: 1_000_000}, sink)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded=%d packets, replayed %d windows\n", n, stats.Windows)
}

func ExampleNewScenarioEngine() {
	eng, _ := hybridplaw.NewScenarioEngine(hybridplaw.PaperRegistry(1),
		hybridplaw.ScenarioConfig{Workers: 4, OutDir: "out", CacheDir: "ptrc"})
	reports, err := eng.Run("table1", "fig3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hybridplaw.SummarizeScenarioReports(reports))
}

func ExampleReduceWindowPartial() {
	params, _ := hybridplaw.PALUFromWeights(2, 2, 1.5, 2.5, 2.0)
	site, _ := hybridplaw.NewSite(hybridplaw.SiteConfig{
		Name: "observatory", Params: params, Nodes: 50000, P: 0.5,
		WeightAlpha: 2.1, MaxWeight: 4096, InvalidFraction: 0.02, Seed: 7,
	})

	sink := &hybridplaw.PartialSink{}
	_, _ = hybridplaw.RunPipeline(site.PacketSource(), hybridplaw.PipelineConfig{
		NV: 100_000, MaxWindows: 4, KeepPartials: true,
	}, sink)
	shifted, _ := sink.Partials[0].Rebase(1 << 24) // second site's id space
	backbone := sink.Partials[0].Merge(shifted)
	win, _ := hybridplaw.ReduceWindowPartial(0, backbone, false)
	fmt.Printf("backbone links=%d\n", win.Aggregates.UniqueLinks)
}

func ExampleSelectModels() {
	params, _ := hybridplaw.PALUFromWeights(2, 2, 1.5, 2.5, 2.0)
	hist, _ := hybridplaw.FastObservedHistogram(params, 200_000, 0.5, hybridplaw.NewRNG(1))
	reg := hybridplaw.DefaultModelRegistry()
	results, errs, err := reg.FitAll(hist, "zm-mle", "plaw", "lognormal")
	if err = errors.Join(append(errs, err)...); err != nil {
		log.Fatal(err) // an unknown name, or a family that failed to fit
	}
	sel, _ := hybridplaw.SelectModels(hist, results)
	best, _ := sel.Best()
	fmt.Printf("winner: %s\n%s", best.Fitter, sel.Table())
	// Output:
	// winner: zm-mle
	// zm-mle     alpha=2.336 delta=-0.3159          k=2   loglik=-92450.7       aic=184905         daic=0          w=1.000
	// lognormal  mu=-40 sigma=5.187                 k=2   loglik=-92590.2       aic=185184         daic=279        w=0.000 vuong_z=8.05 p=8.21e-16
	// plaw       alpha=2.775 xmin=1                 k=1   loglik=-92872.4       aic=185747         daic=841.5      w=0.000 vuong_z=12.03 p=2.59e-33
}

func ExampleBootstrapPowerLawPValue() {
	params, _ := hybridplaw.PALUFromWeights(2, 2, 1.5, 2.5, 2.0)
	hist, _ := hybridplaw.FastObservedHistogram(params, 20_000, 0.5, hybridplaw.NewRNG(1))
	fit, _ := hybridplaw.FitPowerLaw(hist)
	p, _ := hybridplaw.BootstrapPowerLawPValue(hist, fit, 100, hybridplaw.NewRNG(2))
	fmt.Printf("alpha=%.2f xmin=%d p=%.2f\n", fit.Alpha, fit.Xmin, p)
	// Output:
	// alpha=2.79 xmin=1 p=0.00
}
