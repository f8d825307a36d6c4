// Command palu-traffic runs the Section II measurement pipeline on
// observatory traffic: it streams packets (synthetic or replayed from a
// trace CSV) through the single-pass pipeline engine, cutting fixed-NV
// windows on the fly, prints the Table I aggregates per window, and
// reports the pooled differential cumulative distribution of a chosen
// Fig. 1 quantity with its cross-window ±1σ band and modified
// Zipf–Mandelbrot fit. The pipeline runs on one goroutine with one
// window in memory, no matter how long the trace is.
//
// Usage:
//
//	palu-traffic -nv 100000 -windows 4 -quantity fan-out -plot
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"hybridplaw"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/plotio"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/zipfmand"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("palu-traffic: ")
	var (
		nv       = flag.Int64("nv", 100000, "valid packets per window NV")
		windows  = flag.Int("windows", 4, "number of consecutive windows (<= 0 with -trace: every window of the trace)")
		nodes    = flag.Int("nodes", 50000, "underlying node budget")
		p        = flag.Float64("p", 0.5, "edge observation probability")
		seed     = flag.Uint64("seed", 1, "random seed")
		quantity = flag.String("quantity", "fan-out", "quantity: "+strings.Join(stream.QuantityFlagNames[:], "|"))
		plot     = flag.Bool("plot", false, "render ASCII log-log plot")
		trace    = flag.String("trace", "", "replay a packet trace CSV (src,dst,valid) instead of synthesizing traffic")
	)
	flag.Parse()

	q, err := stream.ParseQuantity(*quantity)
	if err != nil {
		log.Fatal(err)
	}
	if *nv <= 0 {
		log.Fatalf("-nv must be positive, got %d", *nv)
	}
	// Synthesized traffic never ends, so only a trace replay may run
	// until its source is exhausted.
	if *windows <= 0 && *trace == "" {
		log.Fatalf("-windows must be positive without -trace, got %d", *windows)
	}

	var src hybridplaw.PacketSource
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		src = hybridplaw.NewCSVSource(f)
	} else {
		params, err := hybridplaw.PALUFromWeights(2, 2, 1.5, 2.5, 2.0)
		if err != nil {
			log.Fatal(err)
		}
		site, err := hybridplaw.NewSite(hybridplaw.SiteConfig{
			Name: "cli", Params: params, Nodes: *nodes, P: *p,
			WeightAlpha: 2.1, WeightDelta: 0, MaxWeight: 4096,
			InvalidFraction: 0.02, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		src = site.PacketSource()
	}

	fmt.Println("Table I aggregate network properties per window:")
	fmt.Printf("%4s %12s %12s %14s %18s\n", "t", "NV", "links", "sources", "destinations")
	tableSink := hybridplaw.FuncSink(func(res *hybridplaw.WindowResult) error {
		agg := res.Aggregates
		fmt.Printf("%4d %12d %12d %14d %18d\n",
			res.T, agg.ValidPackets, agg.UniqueLinks, agg.UniqueSources, agg.UniqueDestinations)
		return nil
	})
	ensSink := hybridplaw.NewEnsembleSink(q)

	stats, err := hybridplaw.RunPipeline(src, hybridplaw.PipelineConfig{
		NV: *nv, MaxWindows: *windows,
	}, tableSink, ensSink)
	if err != nil {
		log.Fatal(err)
	}
	if stats.Windows == 0 {
		log.Fatal(stream.ErrShortStream)
	}

	ens, merged := ensSink.Ensemble(q), ensSink.Merged(q)
	mean, sigma := ens.Mean(), ens.Sigma()
	fmt.Printf("\n%s: pooled differential cumulative probability over %d windows\n", q, ens.Windows())
	fmt.Printf("%8s %14s %14s\n", "di", "mean D(di)", "sigma(di)")
	for i := range mean {
		fmt.Printf("%8d %14.6g %14.6g\n", hist.BinUpper(i), mean[i], sigma[i])
	}

	fit, err := zipfmand.FitEnsemble(ens, merged, zipfmand.DefaultFitOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmodified Zipf-Mandelbrot fit: alpha=%.3f delta=%.3f (SSE=%.4g)\n",
		fit.Alpha, fit.Delta, fit.SSE)

	if *plot {
		model := zipfmand.Model{Alpha: fit.Alpha, Delta: fit.Delta}
		md, err := model.PooledD(merged.MaxDegree())
		if err != nil {
			log.Fatal(err)
		}
		chart, err := plotio.LogLogPlot([]plotio.Series{
			plotio.PooledSeries("observed", mean, 'o'),
			plotio.PooledSeries("ZM fit", md, '+'),
		}, 72, 20)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Println(chart)
	}
}
