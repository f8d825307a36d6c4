// Command palu-figures regenerates every table and figure of the paper
// through the declarative scenario engine: CSV series plus ASCII
// renderings into an output directory, a summary.txt recording
// paper-vs-measured values (the data behind EXPERIMENTS.md), and a
// timings.csv with per-scenario wall times and cache traffic.
//
// Usage:
//
//	palu-figures -out ./out                    # full suite, GOMAXPROCS scenarios at once
//	GOMAXPROCS=1 palu-figures -out ./out       # serial suite, same artifacts (for profiling)
//	palu-figures -out ./out -cache-dir ./ptrc  # record windows once, replay thereafter
//	palu-figures -only fig3 -only table1       # subsets by name or prefix
//	palu-figures -list                         # print the experiment index (EXPERIMENTS.md)
//	palu-figures -metrics - -http :6060        # metrics snapshot + live /metrics + pprof
//	palu-figures -cpuprofile cpu.pb.gz         # profile the suite run
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"hybridplaw/internal/experiments"
	"hybridplaw/internal/obs"
	"hybridplaw/internal/scenario"
)

// onlyFlags accumulates repeated -only values (comma-separable).
type onlyFlags []string

func (f *onlyFlags) String() string { return strings.Join(*f, ",") }

func (f *onlyFlags) Set(v string) error {
	for _, tok := range strings.Split(v, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			*f = append(*f, tok)
		}
	}
	return nil
}

// options carries the parsed flag set into run.
type options struct {
	out        string
	seed       uint64
	cacheDir   string
	list       bool
	only       onlyFlags
	metrics    string // snapshot path, "-" = stdout, "" = off
	httpAddr   string // live /metrics + /debug/pprof address, "" = off
	cpuprofile string
	memprofile string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("palu-figures: ")
	var o options
	flag.StringVar(&o.out, "out", "out", "output directory")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed for the suite-seeded experiments")
	flag.StringVar(&o.cacheDir, "cache-dir", "", "PTRC window cache directory: traffic windows are recorded once and replayed thereafter")
	flag.BoolVar(&o.list, "list", false, "print the experiment index (the content of EXPERIMENTS.md) and exit")
	flag.StringVar(&o.metrics, "metrics", "", "write a metrics snapshot (JSON) here after the run (- = stdout)")
	flag.StringVar(&o.httpAddr, "http", "", "serve /metrics and /debug/pprof on this address for the run's duration")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run here")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile here at clean exit")
	flag.Var(&o.only, "only", "restrict to scenarios matching a name or prefix (repeatable, comma-separable; e.g. fig3, fig3/tokyo2015-source-packets)")
	flag.Parse()
	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

func run(o options) error {
	reg := experiments.MustRegistry(o.seed)
	if o.list {
		fmt.Print(scenario.ListMarkdown(reg))
		return nil
	}
	selection, err := reg.Select(o.only...)
	if err != nil {
		return err
	}

	// One registry covers the whole stack — engine, pipelines, PTRC
	// codecs — when any observability surface is requested.
	var obsReg *obs.Registry
	if o.metrics != "" || o.httpAddr != "" {
		obsReg = obs.NewRegistry()
	}
	if o.httpAddr != "" {
		addr, stop, err := obs.StartDebugServer(o.httpAddr, obsReg)
		if err != nil {
			return err
		}
		defer stop()
		log.Printf("serving /metrics and /debug/pprof on %s", addr)
	}
	if o.cpuprofile != "" {
		stop, err := obs.StartCPUProfile(o.cpuprofile)
		if err != nil {
			return err
		}
		defer stop()
	}

	eng, err := scenario.NewEngine(reg, scenario.Config{
		OutDir:   o.out,
		CacheDir: o.cacheDir,
		Metrics:  obsReg,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}

	reports, runErr := eng.Run(selection...)
	for _, r := range reports {
		status := "ok"
		if r.Err != nil {
			status = "FAILED: " + r.Err.Error()
		}
		log.Printf("%-36s %8.2fs  %s", r.Scenario.Name, r.Duration.Seconds(), status)
	}
	summary := scenario.Summarize(reports)
	if err := os.WriteFile(filepath.Join(o.out, "summary.txt"), []byte(summary), 0o644); err != nil {
		return err
	}
	// timings.csv: deterministic shape (rows and counters), measured
	// seconds — excluded from byte-equality diffs between runs.
	timings := scenario.Timings(reports, eng.CacheStats())
	if err := os.WriteFile(filepath.Join(o.out, "timings.csv"), []byte(timings), 0o644); err != nil {
		return err
	}
	fmt.Print(summary)
	if o.cacheDir != "" {
		cs := eng.CacheStats()
		log.Printf("window cache: %d hits, %d misses, %d packets recorded, %d replayed",
			cs.Hits, cs.Misses, cs.RecordedPackets, cs.ReplayedPackets)
	}
	fmt.Printf("\nartifacts written to %s\n", o.out)
	if obsReg != nil && o.metrics != "" {
		if err := obs.DumpJSON(obsReg, o.metrics); err != nil {
			return err
		}
	}
	if o.memprofile != "" {
		if err := obs.WriteHeapProfile(o.memprofile); err != nil {
			return err
		}
	}
	return runErr
}
