package hybridplaw

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/spmat"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/testenv"
	"hybridplaw/internal/tracestore"
)

// replayTracepackets is the trace length for the archive-format
// acceptance checks: 1M valid packets (plus the invalid fraction), the
// scale named by ISSUE 2.
const replayTraceValid = 1_000_000

var replayTrace struct {
	once sync.Once
	csv  []byte
	ptrc []byte
	n    int64 // total packets (valid + invalid)
	err  error
}

// buildReplayTrace materializes the shared 1M-packet trace in both
// formats once per test binary.
func buildReplayTrace() error {
	replayTrace.once.Do(func() {
		params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
		if err != nil {
			replayTrace.err = err
			return
		}
		site, err := netgen.NewSite(netgen.SiteConfig{
			Name: "replay-bench", Params: params, Nodes: 50000, P: 0.5,
			WeightAlpha: 2.1, WeightDelta: 0, MaxWeight: 4096,
			InvalidFraction: 0.02, HubOrientation: 0.7, Seed: 20260729,
		})
		if err != nil {
			replayTrace.err = err
			return
		}
		src := stream.TakeValid(site.PacketSource(), replayTraceValid)
		var packets []stream.Packet
		for {
			p, ok := src.Next()
			if !ok {
				break
			}
			packets = append(packets, p)
		}
		if err := src.Err(); err != nil {
			replayTrace.err = err
			return
		}
		replayTrace.n = int64(len(packets))

		var csv bytes.Buffer
		if _, err := stream.WriteTraceCSVFrom(&csv, stream.NewSliceSource(packets)); err != nil {
			replayTrace.err = err
			return
		}
		replayTrace.csv = csv.Bytes()

		var ptrc bytes.Buffer
		if _, err := tracestore.Record(&ptrc, stream.NewSliceSource(packets),
			tracestore.WriterOptions{}); err != nil {
			replayTrace.err = err
			return
		}
		replayTrace.ptrc = ptrc.Bytes()
	})
	return replayTrace.err
}

// replayPipeline replays one source through the full measurement
// pipeline (all five Fig. 1 ensembles) and returns the stats.
func replayPipeline(src stream.PacketSource) (stream.PipelineStats, error) {
	return stream.Run(src, stream.PipelineConfig{NV: 100_000}, stream.NewEnsembleSink())
}

// TestPTRCSizeBound asserts the ISSUE 2 storage criterion: the PTRC
// archive of a 1M-packet synthetic trace is at most 35% the size of the
// equivalent CSV.
func TestPTRCSizeBound(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-packet trace generation in -short mode")
	}
	if err := buildReplayTrace(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(replayTrace.ptrc)) / float64(len(replayTrace.csv))
	t.Logf("%d packets: CSV %d bytes, PTRC %d bytes, ratio %.1f%%",
		replayTrace.n, len(replayTrace.csv), len(replayTrace.ptrc), 100*ratio)
	if ratio > 0.35 {
		t.Errorf("PTRC/CSV size ratio %.1f%% exceeds the 35%% bound", 100*ratio)
	}
}

// TestPTRCReplaySpeedup asserts the archive format's throughput claim:
// replaying the shared 1M-packet trace through stream.Run from the PTRC
// Reader must be at least 1.5x faster than CSVSource replay of the same
// trace. Both paths share the window reduction, so the ratio is bounded
// near (parse+reduce)/(decode+reduce). On 2 vCPUs the serial pipeline
// reads about 3.9x (BenchmarkTraceReplay medians: CSV 260 ms, PTRC
// 66 ms), against 5.6–6.3x when a second pipeline worker overlapped
// the reduce with the decode. Each path takes the best of three runs to
// damp scheduler noise, and the floor is asserted on the median of
// three CSV/PTRC pairs that no other process slowed
// (testenv.MedianSpeedup): go test runs package binaries side by side,
// and pairs timed beside another binary read as low as 1.3x. A machine that stays busy for the whole wait is judged
// on every pair measured. Exact numbers live in BenchmarkTraceReplay
// output.
func TestPTRCReplaySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison in -short mode")
	}
	if err := buildReplayTrace(); err != nil {
		t.Fatal(err)
	}
	if runtime.NumCPU() < 2 {
		// A single-CPU container cannot promise any wall-clock ratio
		// between two CPU-bound paths sharing the one core — timing
		// assertions there are scheduler-noise roulette. Degrade to the
		// check that actually matters everywhere: PTRC replay must be
		// window-for-window identical to CSV replay.
		t.Logf("%d CPU: skipping timing floors, asserting replay equivalence", runtime.NumCPU())
		testPTRCReplayEquivalence(t)
		return
	}
	best := func(run func() (stream.PipelineStats, error)) time.Duration {
		bestD := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			stats, err := run()
			d := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ValidPackets != replayTraceValid {
				t.Fatalf("replay saw %d valid packets, want %d", stats.ValidPackets, replayTraceValid)
			}
			if d < bestD {
				bestD = d
			}
		}
		return bestD
	}

	const want = 1.5
	median, _ := testenv.MedianSpeedup(t, 3, func() float64 {
		csvTime := best(func() (stream.PipelineStats, error) {
			return replayPipeline(stream.NewCSVSource(bytes.NewReader(replayTrace.csv)))
		})
		ptrcTime := best(func() (stream.PipelineStats, error) {
			src, err := tracestore.NewReader(bytes.NewReader(replayTrace.ptrc))
			if err != nil {
				return stream.PipelineStats{}, err
			}
			return replayPipeline(src)
		})
		t.Logf("CSV replay %v, PTRC replay %v (%d CPUs)", csvTime, ptrcTime, runtime.NumCPU())
		return float64(csvTime) / float64(ptrcTime)
	})
	if median < want {
		t.Errorf("median PTRC replay speedup %.2fx below the %.1fx floor", median, want)
	}
}

// testPTRCReplayEquivalence replays the shared trace from the CSV and
// from the PTRC reader and requires window-for-window identical
// aggregates: the correctness floor under the speedup claim, asserted on
// machines too small for timing floors.
func testPTRCReplayEquivalence(t *testing.T) {
	t.Helper()
	collect := func(src stream.PacketSource) []spmat.Aggregates {
		var aggs []spmat.Aggregates
		stats, err := stream.Run(src, stream.PipelineConfig{NV: 100_000},
			stream.FuncSink(func(res *stream.WindowResult) error {
				aggs = append(aggs, res.Aggregates)
				return nil
			}))
		if err != nil {
			t.Fatal(err)
		}
		if stats.ValidPackets != replayTraceValid {
			t.Fatalf("replay saw %d valid packets, want %d", stats.ValidPackets, replayTraceValid)
		}
		return aggs
	}
	csvAggs := collect(stream.NewCSVSource(bytes.NewReader(replayTrace.csv)))
	src, err := tracestore.NewReader(bytes.NewReader(replayTrace.ptrc))
	if err != nil {
		t.Fatal(err)
	}
	ptrcAggs := collect(src)
	if !reflect.DeepEqual(csvAggs, ptrcAggs) {
		t.Errorf("PTRC replay aggregates diverge from CSV replay:\n%v\n%v", ptrcAggs, csvAggs)
	}
}
