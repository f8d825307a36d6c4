// Command palu-bench runs the repo's pinned hot-path benchmarks —
// streaming window reduce across pipeline worker counts, PTRC archive
// replay (sequential and parallel decode, per block codec), PTRC
// recording and transcoding (write-side codec × writer-workers matrix
// plus the index-driven passthrough), an engine suite over a warm
// window cache, and model fitting — and writes a machine-readable JSON
// record. BENCH_PR14.json at the repo root is the committed baseline;
// CI re-runs the suite and compares against it benchstat-style. The
// suite runs instrumented (internal/obs) and the record embeds the
// resulting metrics snapshot, so every committed record also documents
// the workload's exact block/window/packet accounting. Each replay
// entry names its block codec and archive size, pricing the packed
// codec's size/speed trade against DEFLATE on identical traces; record
// entries carry the archive size too (archives are byte-identical at
// any writer worker count, so ArchiveBytes doubles as an equivalence
// witness); the engine-suite entry runs four consumers of one window
// sequence, each replaying it itself, with the cache traffic in the
// ReplayedPackets column.
//
// Usage:
//
//	palu-bench -out BENCH_PR14.json                   # run + record
//	palu-bench -out /tmp/b.json -compare BENCH_PR14.json -max-regression 5
//	palu-bench -packets 500000 -replay-packets 200000 # smaller workloads
//	palu-bench -metrics - -cpuprofile cpu.pb.gz       # snapshot + profile
//
// With -compare, per-benchmark ratios are printed and the exit status is
// non-zero when any pinned benchmark regressed beyond -max-regression (a
// multiplicative bound). Every entry records the CPU count it was
// measured on: ns/op is only gated when the baseline entry was captured
// on the same CPU count (cross-hardware throughput comparisons are
// meaningless — the standing hardware-aware-assertion rule), while
// allocs/op is hardware-independent and gated unconditionally.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"hybridplaw/internal/model"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/obs"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/scenario"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/tracestore"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

// Record is the JSON schema of a palu-bench run. Metrics is the obs
// snapshot of the instrumented suite: the deterministic counters
// (packets, windows, blocks, bytes) double-check that a compared record
// really ran the same workload.
type Record struct {
	Schema  string        `json:"schema"`
	Go      string        `json:"go"`
	CPUs    int           `json:"cpus"`
	Results []Bench       `json:"benchmarks"`
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Bench is one pinned benchmark's measurement. CPUs is recorded per
// entry (not just per record) so a compare against a baseline captured
// on different hardware can skip throughput gating entry by entry;
// Workers identifies the pipeline or writer worker count. Codec and
// ArchiveBytes identify the PTRC block codec a replay
// benchmark decoded and the archive size it read, so a committed record
// prices the codec's size/speed trade, not just its speed.
type Bench struct {
	Name         string `json:"name"`
	CPUs         int    `json:"cpus,omitempty"`
	Workers      int    `json:"workers,omitempty"`
	Codec        string `json:"codec,omitempty"`
	ArchiveBytes uint64 `json:"archive_bytes,omitempty"`
	// ReplayedPackets (engine-suite entries) is the total packets the
	// window cache replayed per op, summed over the consumers.
	ReplayedPackets uint64  `json:"replayed_packets,omitempty"`
	NsPerOp         float64 `json:"ns_per_op"`
	MBPerS          float64 `json:"mb_per_s,omitempty"`
	MPacketsPerS    float64 `json:"mpackets_per_s,omitempty"`
	AllocsPerOp     uint64  `json:"allocs_per_op"`
	BytesPerOp      uint64  `json:"bytes_per_op"`
}

// schema names the only record format readRecord accepts. Records of
// older schemas stay in the repo as history, not as parse targets.
const schema = "palu-bench-v6"

// benchWorkers is the worker-count axis of both matrices: each pipeline
// entry reduces the same trace at that many workers (w1 = the fused
// serial pipeline), and each codec is recorded at that many writer
// workers (w1 = the serial writer). Results and archives are identical
// at any count; only the wall time moves.
var benchWorkers = []int{1, 2, 4}

// measure runs fn repeatedly (after one warm-up) until minTime has
// accumulated or maxIters runs completed, and reports the minimum
// wall-clock ns/op with mean allocation counts.
func measure(name string, minTime time.Duration, maxIters int, fn func() error) (Bench, error) {
	if err := fn(); err != nil { // warm-up: page in code, size pools
		return Bench{}, fmt.Errorf("%s: %w", name, err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	best := time.Duration(1<<63 - 1)
	var total time.Duration
	iters := 0
	for iters < maxIters && (iters == 0 || total < minTime) {
		start := time.Now()
		if err := fn(); err != nil {
			return Bench{}, fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(start)
		if d < best {
			best = d
		}
		total += d
		iters++
	}
	runtime.ReadMemStats(&ms1)
	return Bench{
		Name:        name,
		CPUs:        runtime.NumCPU(),
		NsPerOp:     float64(best.Nanoseconds()),
		AllocsPerOp: (ms1.Mallocs - ms0.Mallocs) / uint64(iters),
		BytesPerOp:  (ms1.TotalAlloc - ms0.TotalAlloc) / uint64(iters),
	}, nil
}

// synthTrace deterministically generates a hub-skewed random trace.
type synthTrace struct {
	r     *xrand.RNG
	n, i  int64
	nodes int
}

func newSynthTrace(seed uint64, n int64, nodes int) *synthTrace {
	return &synthTrace{r: xrand.New(seed), n: n, nodes: nodes}
}

func (s *synthTrace) Next() (stream.Packet, bool) {
	if s.i >= s.n {
		return stream.Packet{}, false
	}
	s.i++
	p := stream.Packet{Src: uint32(s.r.Intn(s.nodes)), Dst: uint32(s.r.Intn(s.nodes)), Valid: true}
	if s.r.Intn(4) == 0 {
		p.Dst = uint32(s.r.Intn(16))
	}
	return p, true
}

func (s *synthTrace) Err() error { return nil }

// benchResult is the trivial scenario Result of the engine-suite
// consumers (summary content is irrelevant to the measurement).
type benchResult struct{}

func (benchResult) Summary() string { return "bench\n" }

// suiteConfig sizes the pinned workloads.
type suiteConfig struct {
	packets       int64 // pipeline trace length
	replayPackets int64 // PTRC archive length
	fitN          int   // observed-histogram sample size for the fit benchmarks
	minTime       time.Duration
	maxIters      int
	obs           *obs.Registry // suite instrumentation registry (nil = fresh)
}

// runSuite executes every pinned benchmark, instrumented, and returns
// the record with the metrics snapshot embedded. Instrumentation stays
// on for the measured runs on purpose: the committed record then prices
// the hot path as shipped (the overhead gate in the root test suite
// separately bounds the instrumented/stripped ratio).
func runSuite(cfg suiteConfig) (Record, error) {
	rec := Record{Schema: schema, Go: runtime.Version(), CPUs: runtime.NumCPU()}
	obsReg := cfg.obs
	if obsReg == nil {
		obsReg = obs.NewRegistry()
	}
	sm := stream.NewMetrics(obsReg)
	tm := tracestore.NewMetrics(obsReg)
	nv := cfg.packets / 8
	if nv < 1 {
		nv = 1
	}
	const nodes = 1 << 13

	add := func(b Bench, err error) error {
		if err != nil {
			return err
		}
		rec.Results = append(rec.Results, b)
		return nil
	}

	for _, workers := range benchWorkers {
		b, err := measure(fmt.Sprintf("pipeline-w%d", workers), cfg.minTime, cfg.maxIters, func() error {
			src := newSynthTrace(2, cfg.packets, nodes)
			_, err := stream.Run(src, stream.PipelineConfig{NV: nv, Workers: workers, Metrics: sm})
			return err
		})
		b.Workers = workers
		b.MPacketsPerS = float64(cfg.packets) / (b.NsPerOp / 1e9) / 1e6
		if err := add(b, err); err != nil {
			return rec, err
		}
	}

	// PTRC replay: the same synthetic trace archived once per codec,
	// each archive replayed through the pipeline both sequentially and
	// in parallel. The deflate entries keep their pre-codec names so the
	// perf trajectory across committed records stays continuous; packed
	// entries get a -packed suffix. ArchiveBytes on each entry is what
	// prices the codec trade: packed must buy its decode speed without
	// blowing up the bytes the benchmark had to read.
	replayNV := cfg.replayPackets / 8
	if replayNV < 1 {
		replayNV = 1
	}
	archives := make(map[tracestore.Codec][]byte, 2)
	for _, codec := range []tracestore.Codec{tracestore.CodecDeflate, tracestore.CodecPacked} {
		var archive bytes.Buffer
		if _, err := tracestore.Record(&archive, newSynthTrace(3, cfg.replayPackets, nodes),
			tracestore.WriterOptions{Metrics: tm, Codec: codec}); err != nil {
			return rec, err
		}
		raw := archive.Bytes()
		archives[codec] = raw
		suffix := ""
		if codec != tracestore.CodecDeflate {
			suffix = "-" + codec.String()
		}
		b, err := measure("ptrc-replay-sequential"+suffix, cfg.minTime, cfg.maxIters, func() error {
			src, err := tracestore.NewReader(bytes.NewReader(raw))
			if err != nil {
				return err
			}
			src.SetMetrics(tm)
			_, err = stream.Run(src, stream.PipelineConfig{NV: replayNV, Workers: 1, Metrics: sm})
			return err
		})
		b.Codec, b.ArchiveBytes = codec.String(), uint64(len(raw))
		b.MBPerS = float64(len(raw)) / (b.NsPerOp / 1e9) / 1e6
		if err := add(b, err); err != nil {
			return rec, err
		}
		b, err = measure("ptrc-replay-parallel"+suffix, cfg.minTime, cfg.maxIters, func() error {
			src, err := tracestore.NewParallelReader(bytes.NewReader(raw), int64(len(raw)),
				tracestore.ParallelOptions{Metrics: tm})
			if err != nil {
				return err
			}
			defer src.Close()
			_, err = stream.Run(src, stream.PipelineConfig{NV: replayNV, Metrics: sm})
			return err
		})
		b.Codec, b.ArchiveBytes = codec.String(), uint64(len(raw))
		b.MBPerS = float64(len(raw)) / (b.NsPerOp / 1e9) / 1e6
		if err := add(b, err); err != nil {
			return rec, err
		}

		// Record matrix: the same trace archived at each writer worker
		// count. The archives are byte-identical at every count (pinned by
		// the tracestore test suite), so ArchiveBytes must match the replay
		// entries' exactly — a compare that sees it move caught a codec or
		// framing change, not a perf change.
		for _, workers := range benchWorkers {
			var sink bytes.Buffer
			b, err := measure(fmt.Sprintf("ptrc-record-w%d%s", workers, suffix),
				cfg.minTime, cfg.maxIters, func() error {
					sink.Reset()
					_, err := tracestore.Record(&sink, newSynthTrace(3, cfg.replayPackets, nodes),
						tracestore.WriterOptions{Metrics: tm, Codec: codec, Workers: workers})
					return err
				})
			b.Codec, b.Workers, b.ArchiveBytes = codec.String(), workers, uint64(sink.Len())
			b.MPacketsPerS = float64(cfg.replayPackets) / (b.NsPerOp / 1e9) / 1e6
			if err := add(b, err); err != nil {
				return rec, err
			}
		}
	}

	// Transcode: archive-to-archive rewrites of the deflate archive. The
	// passthrough entry re-frames compressed blocks straight off the
	// index (same codec and geometry, no inflate); the recode entry pays
	// the full decode + packed re-encode through the bulk block path.
	srcRaw := archives[tracestore.CodecDeflate]
	for _, tc := range []struct {
		name  string
		codec tracestore.Codec
	}{
		{"ptrc-transcode-passthrough", tracestore.CodecDeflate},
		{"ptrc-transcode-recode", tracestore.CodecPacked},
	} {
		var sink bytes.Buffer
		b, err := measure(tc.name, cfg.minTime, cfg.maxIters, func() error {
			sink.Reset()
			_, err := tracestore.TranscodeArchive(bytes.NewReader(srcRaw), int64(len(srcRaw)),
				&sink, tracestore.WriterOptions{Metrics: tm, Codec: tc.codec})
			return err
		})
		b.Codec, b.ArchiveBytes = tc.codec.String(), uint64(sink.Len())
		b.MBPerS = float64(len(srcRaw)) / (b.NsPerOp / 1e9) / 1e6
		if err := add(b, err); err != nil {
			return rec, err
		}
	}

	params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		return rec, err
	}

	// Engine suite: four scenarios declaring one identical window
	// sequence, run through the scenario engine over a warm PTRC cache,
	// each replaying it through its own pipeline run. ReplayedPackets
	// records the cache traffic, and MPackets/s is the effective
	// delivered-packet throughput (consumers × valid packets).
	engineDir, err := os.MkdirTemp("", "palu-bench-engine-*")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(engineDir)
	const engineFanOut = 4
	engineNV := cfg.replayPackets / engineFanOut
	if engineNV < 1 {
		engineNV = 1
	}
	engineReq := scenario.WindowReq{
		Site: netgen.SiteConfig{
			Name: "bench-engine", Params: params, Nodes: 3000, P: 0.5,
			WeightAlpha: 2.1, WeightDelta: 0, MaxWeight: 64,
			InvalidFraction: 0.02, Seed: 5,
		},
		NV: engineNV, Windows: engineFanOut,
	}
	var last scenario.CacheStats
	b, err := measure("engine-suite-replay", cfg.minTime, cfg.maxIters, func() error {
		reg := scenario.NewRegistry()
		for i := 0; i < engineFanOut; i++ {
			name := fmt.Sprintf("consumer%d", i)
			reg.MustRegister(scenario.Scenario{
				Name: name, Title: name, Windows: []scenario.WindowReq{engineReq},
				Run: func(ctx *scenario.Context) (scenario.Result, error) {
					_, err := ctx.Stream(engineReq, stream.PipelineConfig{},
						stream.FuncSink(func(*stream.WindowResult) error { return nil }))
					return benchResult{}, err
				},
			})
		}
		eng, err := scenario.NewEngine(reg, scenario.Config{Workers: 1, CacheDir: engineDir})
		if err != nil {
			return err
		}
		if _, err := eng.Run(); err != nil {
			return err
		}
		last = eng.CacheStats()
		return nil
	})
	if err == nil {
		b.ReplayedPackets = uint64(last.ReplayedPackets)
		b.MPacketsPerS = float64(engineFanOut) * float64(engineReq.ValidPackets()) /
			(b.NsPerOp / 1e9) / 1e6
	}
	if err := add(b, err); err != nil {
		return rec, err
	}

	// Fitting: one PALU-generated observed histogram, the ZM fit and the
	// full registry pass over it.
	h, err := palu.FastObservedHistogram(params, cfg.fitN, 0.5, xrand.New(11))
	if err != nil {
		return rec, err
	}
	if err := add(measure("fit-zm", cfg.minTime, cfg.maxIters, func() error {
		_, _, err := zipfmand.FitHistogram(h, zipfmand.DefaultFitOptions())
		return err
	})); err != nil {
		return rec, err
	}
	reg := model.Default()
	if err := add(measure("fit-registry", cfg.minTime, cfg.maxIters, func() error {
		results, errs, err := reg.FitAll(h)
		if err != nil {
			return err
		}
		ok := results[:0]
		for i, r := range results {
			if errs[i] == nil {
				ok = append(ok, r)
			}
		}
		_, err = model.Select(h, ok)
		return err
	})); err != nil {
		return rec, err
	}
	snap := obsReg.Snapshot()
	rec.Metrics = &snap
	return rec, nil
}

// compare prints a benchstat-style table of cur against base and returns
// the names that regressed beyond maxRegression (<= 0 disables the gate;
// ratios are still printed). ns/op is gated only when both entries were
// measured on the same CPU count — cross-hardware throughput ratios are
// reported as informational. allocs/op is hardware-independent and gated
// unconditionally (a zero-alloc baseline entry gates on any growth
// beyond maxRegression× of one alloc).
func compare(w *log.Logger, base, cur Record, maxRegression float64) []string {
	byName := make(map[string]Bench, len(cur.Results))
	for _, b := range cur.Results {
		byName[b.Name] = b
	}
	var failed []string
	w.Printf("%-26s %14s %14s %8s %8s %8s %8s", "benchmark",
		"base ns/op", "now ns/op", "ns", "allocs", "base", "now")
	for _, b := range base.Results {
		c, ok := byName[b.Name]
		if !ok {
			w.Printf("%-26s %14.0f %14s %8s", b.Name, b.NsPerOp, "MISSING", "-")
			failed = append(failed, b.Name+" (missing)")
			continue
		}
		sameHW := b.CPUs == c.CPUs
		nsRatio := c.NsPerOp / b.NsPerOp
		nsCol := fmt.Sprintf("%.2fx", nsRatio)
		if !sameHW {
			nsCol += "*" // informational: different CPU counts
		}
		baseAllocs := float64(b.AllocsPerOp)
		if baseAllocs == 0 {
			baseAllocs = 1
		}
		allocRatio := float64(c.AllocsPerOp) / baseAllocs
		w.Printf("%-26s %14.0f %14.0f %8s %7.2fx %8d %8d", b.Name,
			b.NsPerOp, c.NsPerOp, nsCol, allocRatio, b.AllocsPerOp, c.AllocsPerOp)
		if maxRegression <= 0 {
			continue
		}
		if sameHW && nsRatio > maxRegression {
			failed = append(failed, fmt.Sprintf("%s (ns/op %.2fx > %.2fx)", b.Name, nsRatio, maxRegression))
		}
		if allocRatio > maxRegression {
			failed = append(failed, fmt.Sprintf("%s (allocs/op %.2fx > %.2fx)", b.Name, allocRatio, maxRegression))
		}
	}
	return failed
}

func writeRecord(path string, rec Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != schema {
		return Record{}, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, schema)
	}
	return rec, nil
}

func run(args []string, logger *log.Logger) error {
	fs := flag.NewFlagSet("palu-bench", flag.ContinueOnError)
	var (
		out           = fs.String("out", "BENCH_PR14.json", "output JSON path")
		comparePath   = fs.String("compare", "", "baseline JSON to compare against (benchstat-style ratios)")
		maxRegression = fs.Float64("max-regression", 0, "fail when any same-hardware ns/op or any allocs/op ratio vs the baseline exceeds this factor (0 = report only)")
		packets       = fs.Int64("packets", 2_000_000, "pipeline benchmark trace length in packets")
		replayPackets = fs.Int64("replay-packets", 500_000, "PTRC replay benchmark archive length in packets")
		fitN          = fs.Int("fit-n", 300_000, "observed-histogram sample size for the fit benchmarks")
		minTime       = fs.Duration("min-time", time.Second, "minimum accumulated run time per benchmark")
		maxIters      = fs.Int("max-iters", 5, "maximum iterations per benchmark")
		metrics       = fs.String("metrics", "", "also write the suite's metrics snapshot (JSON) here (- = stdout)")
		cpuprofile    = fs.String("cpuprofile", "", "write a CPU profile of the suite here")
		memprofile    = fs.String("memprofile", "", "write a heap profile here at clean exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			return err
		}
		defer stop()
	}
	obsReg := obs.NewRegistry()
	rec, err := runSuite(suiteConfig{
		packets:       *packets,
		replayPackets: *replayPackets,
		fitN:          *fitN,
		minTime:       *minTime,
		maxIters:      *maxIters,
		obs:           obsReg,
	})
	if err != nil {
		return err
	}
	for _, b := range rec.Results {
		extra := ""
		if b.MPacketsPerS > 0 {
			extra = fmt.Sprintf("  %8.2f Mpackets/s", b.MPacketsPerS)
		}
		if b.MBPerS > 0 {
			extra = fmt.Sprintf("  %8.2f MB/s", b.MBPerS)
		}
		logger.Printf("%-26s %14.0f ns/op%s  %d allocs/op", b.Name, b.NsPerOp, extra, b.AllocsPerOp)
	}
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			return err
		}
		logger.Printf("wrote %s", *out)
	}
	if *metrics != "" {
		if err := obs.DumpJSON(obsReg, *metrics); err != nil {
			return err
		}
	}
	if *comparePath != "" {
		base, err := readRecord(*comparePath)
		if err != nil {
			return err
		}
		if failed := compare(logger, base, rec, *maxRegression); len(failed) > 0 {
			return fmt.Errorf("benchmarks regressed beyond the gate: %v", failed)
		}
	}
	if *memprofile != "" {
		if err := obs.WriteHeapProfile(*memprofile); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	logger := log.New(os.Stderr, "palu-bench: ", 0)
	if err := run(os.Args[1:], logger); err != nil {
		logger.Fatal(err)
	}
}
