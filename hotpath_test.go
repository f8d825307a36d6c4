// Pinned hot-path workloads: the streaming window reduce (the full
// read set, and one Fig. 3 panel's packets-only one), PTRC replay
// and record, an engine suite over a warm window cache, and the model
// fits. BenchmarkHotPath times them at full size;
// TestHotPathAllocs pins their allocation counts at small size, which
// are hardware-independent and so gate on every host. Run with:
//
//	go test -run TestHotPathAllocs -count=1 .
//	go test -run '^$' -bench BenchmarkHotPath -benchtime 1x .
//
// Every op runs instrumented (internal/obs), so both price the hot path
// as shipped.
package hybridplaw

import (
	"bytes"
	"fmt"
	"testing"

	"hybridplaw/internal/hist"
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

// hotPathSize sizes the workloads: the pipeline trace length, the PTRC
// archive length (also the engine suite's valid packets per window
// sequence) and the observed-histogram sample size of the fits.
type hotPathSize struct {
	packets, replayPackets int64
	fitN                   int
}

var (
	hotPathBench = hotPathSize{packets: 2_000_000, replayPackets: 500_000, fitN: 300_000}
	hotPathSmall = hotPathSize{packets: 20_000, replayPackets: 10_000, fitN: 20_000}
)

// hotPathNodes is the endpoint universe of the synthetic traces.
const hotPathNodes = 1 << 13

// hotPath is the table of pinned workloads. prepare does the untimed
// set-up at one size and returns the op to measure. maxAllocs pins the
// op's allocs/op at hotPathSmall to ⌈1.5 × the highest count of 23
// runs on linux/amd64, go1.24⌉; that count is in the comment. An op
// that needs more allocations than its pin regressed; one that needs
// far fewer should have its pin re-measured.
var hotPath = []struct {
	name      string
	maxAllocs float64
	prepare   func(tb testing.TB, sz hotPathSize) func() error
}{
	{"pipeline-w1", 339, pipelineOp},                 // 226
	{"pipeline-1q-w1", 146, pipelineOneQuantityOp},   // 97
	{"ptrc-replay-sequential-packed", 357, replayOp}, // 238
	{"ptrc-record-w1-packed", 51, recordOp},          // 34
	{"engine-suite-replay", 1302, engineOp},          // 868
	{"fit-zm", 143, fitZMOp},                         // 95
	{"fit-registry", 3390, fitRegistryOp},            // 2260
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

// windowNV is the window size that cuts n packets into eight windows.
func windowNV(n int64) int64 { return max(n/8, 1) }

// fullReadSink is a sink that declares no read set and does nothing, so
// every window of its run pays the full reduce (a run with no sinks
// reduces nothing) and nothing else.
var fullReadSink = stream.FuncSink(func(*stream.WindowResult) error { return nil })

// pipelineOp reduces a synthetic trace through the fused pipeline.
func pipelineOp(_ testing.TB, sz hotPathSize) func() error {
	sm := stream.NewMetrics(obs.NewRegistry())
	return func() error {
		src := newSynthTrace(2, sz.packets, hotPathNodes)
		_, err := stream.Run(src, stream.PipelineConfig{NV: windowNV(sz.packets), Metrics: sm},
			fullReadSink)
		return err
	}
}

// pipelineOneQuantityOp reduces the same trace through one Fig. 3
// panel's read set, source packets alone: the run counts per-node
// packets without building the link table.
func pipelineOneQuantityOp(_ testing.TB, sz hotPathSize) func() error {
	sm := stream.NewMetrics(obs.NewRegistry())
	return func() error {
		src := newSynthTrace(2, sz.packets, hotPathNodes)
		_, err := stream.Run(src, stream.PipelineConfig{NV: windowNV(sz.packets), Metrics: sm},
			stream.NewEnsembleSink(stream.SourcePackets))
		return err
	}
}

// replayOp replays an archive of the replay trace through the serial
// pipeline.
func replayOp(tb testing.TB, sz hotPathSize) func() error {
	reg := obs.NewRegistry()
	sm, tm := stream.NewMetrics(reg), tracestore.NewMetrics(reg)
	var archive bytes.Buffer
	if _, err := tracestore.Record(&archive, newSynthTrace(3, sz.replayPackets, hotPathNodes),
		tracestore.WriterOptions{Metrics: tm}); err != nil {
		tb.Fatal(err)
	}
	raw := archive.Bytes()
	return func() error {
		src, err := tracestore.NewReader(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		src.SetMetrics(tm)
		_, err = stream.Run(src, stream.PipelineConfig{NV: windowNV(sz.replayPackets), Metrics: sm},
			fullReadSink)
		return err
	}
}

// recordOp archives the replay trace through the writer.
func recordOp(_ testing.TB, sz hotPathSize) func() error {
	tm := tracestore.NewMetrics(obs.NewRegistry())
	var sink bytes.Buffer
	return func() error {
		sink.Reset()
		_, err := tracestore.Record(&sink, newSynthTrace(3, sz.replayPackets, hotPathNodes),
			tracestore.WriterOptions{Metrics: tm})
		return err
	}
}

// hotPathParams is the PALU model of the engine suite's site and of the
// fits' observed histogram.
func hotPathParams(tb testing.TB) palu.Params {
	tb.Helper()
	params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		tb.Fatal(err)
	}
	return params
}

// hotPathResult is the trivial scenario Result of the engine-suite
// consumers.
type hotPathResult struct{}

func (hotPathResult) Summary() string { return "hot path\n" }

// engineOp runs four scenarios declaring one identical window sequence
// through the scenario engine over a PTRC cache, each replaying it
// through its own pipeline run. Set-up fills the cache, so the op
// measures the warm path.
func engineOp(tb testing.TB, sz hotPathSize) func() error {
	const fanOut = 4
	dir := tb.TempDir()
	req := scenario.WindowReq{
		Site: netgen.SiteConfig{
			Name: "hot-path-engine", Params: hotPathParams(tb), Nodes: 3000, P: 0.5,
			WeightAlpha: 2.1, WeightDelta: 0, MaxWeight: 64,
			InvalidFraction: 0.02, Seed: 5,
		},
		NV: max(sz.replayPackets/fanOut, 1), Windows: fanOut,
	}
	op := func() error {
		reg := scenario.NewRegistry()
		for i := 0; i < fanOut; i++ {
			name := fmt.Sprintf("consumer%d", i)
			if err := reg.Register(scenario.Scenario{
				Name: name, Title: name, Windows: []scenario.WindowReq{req},
				Run: func(ctx *scenario.Context) (scenario.Result, error) {
					_, err := ctx.Stream(req, stream.PipelineConfig{}, fullReadSink)
					return hotPathResult{}, err
				},
			}); err != nil {
				return err
			}
		}
		eng, err := scenario.NewEngine(reg, scenario.Config{Workers: 1, CacheDir: dir})
		if err != nil {
			return err
		}
		_, err = eng.Run()
		return err
	}
	if err := op(); err != nil {
		tb.Fatal(err)
	}
	return op
}

// observedHistogram is the fits' PALU-generated observed histogram.
func observedHistogram(tb testing.TB, sz hotPathSize) *hist.Histogram {
	tb.Helper()
	h, err := palu.FastObservedHistogram(hotPathParams(tb), sz.fitN, 0.5, xrand.New(11))
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// fitZMOp fits the modified Zipf–Mandelbrot model.
func fitZMOp(tb testing.TB, sz hotPathSize) func() error {
	h := observedHistogram(tb, sz)
	return func() error {
		_, _, err := zipfmand.FitHistogram(h, zipfmand.DefaultFitOptions())
		return err
	}
}

// fitRegistryOp fits every registered family and selects among the
// fits that succeeded.
func fitRegistryOp(tb testing.TB, sz hotPathSize) func() error {
	h := observedHistogram(tb, sz)
	reg := model.Default()
	return func() error {
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
	}
}

// TestHotPathAllocs pins each workload's allocs/op at hotPathSmall.
// testing.AllocsPerRun measures at GOMAXPROCS 1, so the counts do not
// depend on the host's CPU count.
func TestHotPathAllocs(t *testing.T) {
	for _, w := range hotPath {
		t.Run(w.name, func(t *testing.T) {
			op := w.prepare(t, hotPathSmall)
			var err error
			allocs := testing.AllocsPerRun(3, func() {
				if err == nil {
					err = op()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f allocs/op (pin %.0f)", allocs, w.maxAllocs)
			if allocs > w.maxAllocs {
				t.Errorf("%.0f allocs/op, pinned at most %.0f", allocs, w.maxAllocs)
			}
		})
	}
}

// BenchmarkHotPath times each workload at hotPathBench.
func BenchmarkHotPath(b *testing.B) {
	for _, w := range hotPath {
		b.Run(w.name, func(b *testing.B) {
			op := w.prepare(b, hotPathBench)
			b.ReportAllocs()
			for b.Loop() {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
