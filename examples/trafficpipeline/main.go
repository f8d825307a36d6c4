// Trafficpipeline demonstrates the full Section II measurement path on
// synthetic observatory traffic, using the single-pass streaming engine:
// packet source → fixed-NV windows → Table I aggregates and all five
// Fig. 1 network quantities per window → pooled distributions with
// cross-window error bars, all in one pass over the stream with one
// window in memory.
package main

import (
	"fmt"
	"log"

	"hybridplaw"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/stream"
)

func main() {
	log.SetFlags(0)
	params, err := hybridplaw.PALUFromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		log.Fatal(err)
	}
	site, err := hybridplaw.NewSite(hybridplaw.SiteConfig{
		Name:   "example-observatory",
		Params: params, Nodes: 50000, P: 0.5,
		WeightAlpha: 2.1, WeightDelta: 0, MaxWeight: 4096,
		InvalidFraction: 0.02, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	const nv = 100000
	const numWindows = 4

	// Three sinks share the single pass: one prints Table I aggregates as
	// windows close, one keeps window t=0 for the Fig. 1 readout, and one
	// accumulates the cross-window fan-out ensemble.
	fmt.Println("Table I aggregates per window (streamed, matrices never materialized):")
	tableSink := hybridplaw.FuncSink(func(res *hybridplaw.WindowResult) error {
		fmt.Printf("  t=%d: %v\n", res.T, res.Aggregates)
		return nil
	})
	var first *hybridplaw.WindowResult
	firstSink := hybridplaw.FuncSink(func(res *hybridplaw.WindowResult) error {
		if first == nil {
			first = res
		}
		return nil
	})
	ens := hybridplaw.NewEnsembleSink(hybridplaw.SourceFanOut)

	stats, err := hybridplaw.RunPipeline(site.PacketSource(), hybridplaw.PipelineConfig{
		NV: nv, MaxWindows: numWindows,
	}, tableSink, firstSink, ens)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncut %d windows of NV=%d valid packets each (%d invalid filtered)\n",
		stats.Windows, nv, stats.InvalidPackets)

	fmt.Println("\nFig. 1 network quantities of window t=0:")
	for _, q := range stream.Quantities {
		h := first.Hists[q]
		fmt.Printf("  %-22s observations=%-8d dmax=%-7d D(1)=%.4f\n",
			q, h.Total(), h.MaxDegree(), h.FractionDegreeOne())
	}

	// Cross-window ensemble of source fan-out, the paper's ±1σ band.
	e := ens.Ensemble(hybridplaw.SourceFanOut)
	mean, sigma := e.Mean(), e.Sigma()
	fmt.Printf("\nsource fan-out pooled D(di) over %d windows (mean ± sigma):\n", e.Windows())
	for i := range mean {
		fmt.Printf("  di=%-7d D=%.6f ± %.6f\n", hist.BinUpper(i), mean[i], sigma[i])
	}
}
