// Command perfbench-worker runs one phase of a perfbench run in its own
// process, so each phase's memory high-water mark and CPU time belong to
// it alone. run.py builds it, starts it once per phase and reads the JSON
// object it prints on stdout.
//
//	perfbench-worker list  -seed N [-only tok]...
//	perfbench-worker setup -seed N -cache DIR [-only tok]...
//	perfbench-worker pass  -seed N -cache DIR -out DIR [-only tok]...
//	perfbench-worker trace -seed N -cache DIR -out DIR -scratch DIR -spans FILE [-only tok]...
//	perfbench-worker probe
//
// list prints the selected scenarios; setup populates the window cache;
// pass drives the real registry exactly as palu-figures does by default
// (serial engine, shared replay, no shards, serial writer) with the
// window cache at -cache; trace runs the same pass with a span around
// every Scenario.Run, then re-issues the selection's layer calls on the
// same inputs under layer spans (layers.go); probe times a fixed
// standard-library workload (probe.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"hybridplaw/internal/experiments"
	"hybridplaw/internal/scenario"
	"hybridplaw/internal/stream"
)

// onlyFlags accumulates repeated -only selection tokens.
type onlyFlags []string

func (f *onlyFlags) String() string { return strings.Join(*f, ",") }

func (f *onlyFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

type options struct {
	seed    uint64
	only    onlyFlags
	cache   string
	out     string
	scratch string
	spans   string
}

func main() {
	if len(os.Args) < 2 {
		fail(errors.New("usage: perfbench-worker list|setup|pass|trace [flags]"))
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var o options
	fs.Uint64Var(&o.seed, "seed", 1, "suite seed")
	fs.Var(&o.only, "only", "scenario selection token (repeatable; none = full registry)")
	fs.StringVar(&o.cache, "cache", "", "window cache directory")
	fs.StringVar(&o.out, "out", "", "artifact output directory")
	fs.StringVar(&o.scratch, "scratch", "", "directory for the re-issued layer writes")
	fs.StringVar(&o.spans, "spans", "", "write the traced run's spans here")
	if err := fs.Parse(os.Args[2:]); err != nil {
		fail(err)
	}
	var res any
	var err error
	switch cmd {
	case "list":
		res, err = list(o)
	case "setup":
		res, err = setup(o)
	case "pass":
		res, err = pass(o, nil)
	case "trace":
		res, err = traced(o)
	case "probe":
		res = probe()
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fail(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench-worker:", err)
	os.Exit(1)
}

// selection returns the selected scenarios of the seed's registry, in
// registration order.
func selection(o options) ([]scenario.Scenario, error) {
	reg := experiments.MustRegistry(o.seed)
	names, err := reg.Select(o.only...)
	if err != nil {
		return nil, err
	}
	scens := make([]scenario.Scenario, len(names))
	for i, n := range names {
		scens[i], _ = reg.Get(n)
	}
	return scens, nil
}

// uniqueWindows returns the distinct declared windows of scens, by cache
// key, in first-declaration order.
func uniqueWindows(scens []scenario.Scenario) []scenario.WindowReq {
	seen := make(map[string]bool)
	var out []scenario.WindowReq
	for _, s := range scens {
		for _, w := range s.Windows {
			if k := w.Key(); !seen[k] {
				seen[k] = true
				out = append(out, w)
			}
		}
	}
	return out
}

type listedScenario struct {
	Name    string   `json:"name"`
	Title   string   `json:"title"`
	Outputs []string `json:"outputs"`
}

func list(o options) (any, error) {
	scens, err := selection(o)
	if err != nil {
		return nil, err
	}
	out := make([]listedScenario, len(scens))
	for i, s := range scens {
		out[i] = listedScenario{Name: s.Name, Title: s.Title, Outputs: append([]string{}, s.Outputs...)}
	}
	return map[string]any{"scenarios": out}, nil
}

// setup populates the window cache the way a first cached run does:
// WindowCache.Stream over every distinct window the selection declares,
// which records each archive and replays it once.
func setup(o options) (any, error) {
	scens, err := selection(o)
	if err != nil {
		return nil, err
	}
	cache, err := scenario.NewWindowCache(o.cache)
	if err != nil {
		return nil, err
	}
	wins := uniqueWindows(scens)
	for _, w := range wins {
		if _, err := cache.Stream(w, stream.PipelineConfig{NV: w.NV, MaxWindows: w.Windows}); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	return map[string]any{"windows": len(wins), "recorded_packets": cache.Stats().RecordedPackets}, nil
}

// passResult is what a pass reports besides what run.py measures from
// outside the process (wall time, CPU time, peak RSS).
type passResult struct {
	AllocBytes uint64              `json:"alloc_bytes"`
	Failures   map[string]string   `json:"failures"`
	Cache      scenario.CacheStats `json:"cache"`
}

// pass runs the selection through the engine with palu-figures' default
// configuration plus the window cache, and writes summary.txt and
// timings.csv as palu-figures does. wrap, when non-nil, decorates every
// scenario before registration.
func pass(o options, wrap func(scenario.Scenario) scenario.Scenario) (*passResult, error) {
	scens, err := selection(o)
	if err != nil {
		return nil, err
	}
	reg := scenario.NewRegistry()
	for _, s := range scens {
		if wrap != nil {
			s = wrap(s)
		}
		if err := reg.Register(s); err != nil {
			return nil, err
		}
	}
	eng, err := scenario.NewEngine(reg, scenario.Config{Workers: 1, OutDir: o.out, CacheDir: o.cache})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	// Scenario failures are reported per scenario below; Run's error
	// matters only when it ran nothing (a scheduling error).
	reports, runErr := eng.Run(reg.Names()...)
	if len(reports) != len(scens) {
		return nil, fmt.Errorf("engine ran %d of %d scenarios: %v", len(reports), len(scens), runErr)
	}
	res := &passResult{Failures: make(map[string]string), Cache: eng.CacheStats()}
	for _, r := range reports {
		if r.Err != nil {
			res.Failures[r.Scenario.Name] = r.Err.Error()
		}
	}
	if err := os.WriteFile(filepath.Join(o.out, "summary.txt"), []byte(scenario.Summarize(reports)), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "timings.csv"), []byte(scenario.Timings(reports, res.Cache)), 0o644); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.AllocBytes = ms.TotalAlloc
	return res, nil
}

// traced runs one pass with a span around every Scenario.Run, then
// re-issues the selection's layer calls, and writes every span to
// o.spans.
func traced(o options) (any, error) {
	tr := newTracer()
	passSpan := tr.start("pass", "", -1)
	res, err := pass(o, func(s scenario.Scenario) scenario.Scenario {
		run, name := s.Run, s.Name
		s.Run = func(ctx *scenario.Context) (scenario.Result, error) {
			id := tr.start("scenario/"+name, "scenario", passSpan)
			defer tr.end(id)
			return run(ctx)
		}
		return s
	})
	tr.end(passSpan)
	if err != nil {
		return nil, err
	}
	scens, err := selection(o)
	if err != nil {
		return nil, err
	}
	counts, err := reissue(tr, o, scens)
	if err != nil {
		return nil, err
	}
	if err := tr.write(o.spans); err != nil {
		return nil, err
	}
	return map[string]any{"pass": res, "counts": counts, "overhead_s": tr.overhead.Seconds()}, nil
}
