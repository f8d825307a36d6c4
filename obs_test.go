// Root-level acceptance tests for internal/obs (DESIGN.md §11): the
// snapshot of an instrumented replay must be identically keyed across
// pipeline worker counts with exact equality for every
// deterministic quantity, and instrumentation must not price the fused
// serial hot path beyond a few percent.
package hybridplaw

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"time"

	"hybridplaw/internal/obs"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/tracestore"
	"hybridplaw/internal/xrand"
)

// obsTraceValid / obsTraceNV shape the equivalence-test archive: three
// full windows plus a 10k-valid-packet tail the pipeline must discard,
// with a 2% invalid sprinkle it must filter.
const (
	obsTraceValid = 130_000
	obsTraceNV    = 40_000
)

// buildObsTrace archives a small deterministic trace and returns the
// raw bytes plus its index summary.
func buildObsTrace(t *testing.T) ([]byte, tracestore.ArchiveInfo) {
	t.Helper()
	r := xrand.New(20260808)
	packets := make([]stream.Packet, 0, obsTraceValid+obsTraceValid/32)
	for valid := 0; valid < obsTraceValid; {
		p := stream.Packet{Src: uint32(r.Intn(4096)), Dst: uint32(r.Intn(4096)), Valid: true}
		if r.Intn(50) == 0 {
			p.Valid = false
		} else {
			valid++
		}
		packets = append(packets, p)
	}
	var buf bytes.Buffer
	if _, err := tracestore.Record(&buf, stream.NewSliceSource(packets),
		tracestore.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	info, err := tracestore.Info(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), info
}

// TestObsSnapshotEquivalenceAcrossConfigs replays one archive at
// {1,2,4} pipeline workers, each run against a fresh registry, and requires (a) byte-identical snapshot key sets and
// (b) exact equality for the deterministic quantities — packet counts,
// windows, tail, blocks, bytes, and the per-window span counters. Times
// and pool/queue traffic legitimately vary with the engine; counts of
// work done must not.
func TestObsSnapshotEquivalenceAcrossConfigs(t *testing.T) {
	raw, info := buildObsTrace(t)
	deterministic := []string{
		"palu_stream_packets_valid_total",
		"palu_stream_packets_invalid_total",
		"palu_stream_windows_total",
		"palu_stream_tail_discarded_packets_total",
		"palu_stream_ingest_spans_total",
		"palu_stream_window_close_spans_total",
		"palu_stream_sink_spans_total",
		"palu_ptrc_blocks_read_total",
		"palu_ptrc_read_raw_bytes_total",
		"palu_ptrc_read_compressed_bytes_total",
		"palu_ptrc_crc_failures_total",
	}
	var baseNames []string
	baseVals := map[string]int64{}
	for i, workers := range []int{1, 2, 4} {
		reg := obs.NewRegistry()
		sm := stream.NewMetrics(reg)
		tm := tracestore.NewMetrics(reg)
		src, err := tracestore.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		src.SetMetrics(tm)
		stats, err := stream.Run(src, stream.PipelineConfig{
			NV: obsTraceNV, Workers: workers, Metrics: sm,
		}, stream.NewEnsembleSink())
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if stats.Windows != obsTraceValid/obsTraceNV {
			t.Fatalf("w=%d: %d windows", workers, stats.Windows)
		}
		snap := reg.Snapshot()
		names := snap.Names()
		if !sort.StringsAreSorted(names) {
			t.Fatalf("w=%d: snapshot names not sorted", workers)
		}
		if i == 0 {
			baseNames = names
			// Pin the absolute values once (ingest spans have no closed
			// form — DecodeInto is called per block run *and* per window
			// boundary — so they are only held identical across configs);
			// later configs then compare against numbers already checked
			// against the pipeline stats and the archive index.
			checks := map[string]int64{
				"palu_stream_packets_valid_total":          stats.ValidPackets,
				"palu_stream_packets_invalid_total":        stats.InvalidPackets,
				"palu_stream_windows_total":                int64(stats.Windows),
				"palu_stream_tail_discarded_packets_total": stats.DiscardedTail,
				"palu_stream_window_close_spans_total":     int64(stats.Windows),
				"palu_stream_sink_spans_total":             int64(stats.Windows),
				"palu_ptrc_blocks_read_total":              int64(info.Blocks),
				"palu_ptrc_read_raw_bytes_total":           info.RawBytes,
				"palu_ptrc_read_compressed_bytes_total":    info.CompressedBytes,
				"palu_ptrc_crc_failures_total":             0,
			}
			for _, name := range deterministic {
				m, ok := snap.Get(name)
				if !ok {
					t.Fatalf("snapshot missing %s", name)
				}
				if want, pinned := checks[name]; pinned && m.Value != want {
					t.Errorf("baseline %s = %d, want %d", name, m.Value, want)
				}
				baseVals[name] = m.Value
			}
			continue
		}
		if !reflect.DeepEqual(names, baseNames) {
			t.Errorf("w=%d: snapshot key set diverges from baseline:\n%v\n%v",
				workers, names, baseNames)
		}
		for _, name := range deterministic {
			m, ok := snap.Get(name)
			if !ok {
				t.Errorf("w=%d: snapshot missing %s", workers, name)
				continue
			}
			if m.Value != baseVals[name] {
				t.Errorf("w=%d: %s = %d, baseline %d",
					workers, name, m.Value, baseVals[name])
			}
		}
	}
}

// obsReplayOnce replays the shared 1M-packet archive over the fused
// serial hot path (sequential reader, one worker) with the given
// instrumentation (nil = stripped) and returns the wall time.
func obsReplayOnce(t testing.TB, sm *stream.Metrics, tm *tracestore.Metrics) time.Duration {
	start := time.Now()
	src, err := tracestore.NewReader(bytes.NewReader(replayTrace.ptrc))
	if err != nil {
		t.Fatal(err)
	}
	src.SetMetrics(tm)
	stats, err := stream.Run(src, stream.PipelineConfig{
		NV: 100_000, Workers: 1, Metrics: sm,
	}, stream.NewEnsembleSink())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 10 {
		t.Fatalf("windows = %d, want 10", stats.Windows)
	}
	return time.Since(start)
}

// TestMetricsOverheadGate asserts the ISSUE 7 cost criterion: the fused
// serial archive replay with metrics enabled stays within 5% of the
// uninstrumented run. Runs alternate instrumented/stripped and each
// side keeps its minimum (the standard noise-damping for wall-clock
// assertions); following the standing hardware-aware-assertion rule the
// 5% bar widens to the machine's own measured noise floor when identical
// stripped runs differ by more than 5% — on a loaded single-CPU
// container the comparison is otherwise scheduler roulette. Exact
// numbers live in BenchmarkMetricsOverhead output.
func TestMetricsOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-packet timing comparison in -short mode")
	}
	if err := buildReplayTrace(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sm := stream.NewMetrics(reg)
	tm := tracestore.NewMetrics(reg)
	obsReplayOnce(t, nil, nil) // warm-up: page in code, size pools
	obsReplayOnce(t, sm, tm)

	const rounds = 7
	var stripped, instrumented []time.Duration
	for i := 0; i < rounds; i++ {
		stripped = append(stripped, obsReplayOnce(t, nil, nil))
		instrumented = append(instrumented, obsReplayOnce(t, sm, tm))
	}
	sort.Slice(stripped, func(i, j int) bool { return stripped[i] < stripped[j] })
	sort.Slice(instrumented, func(i, j int) bool { return instrumented[i] < instrumented[j] })
	ratio := float64(instrumented[0]) / float64(stripped[0])
	// The machine's own resolution: how far apart its two best identical
	// stripped runs land. A 5% assertion is only meaningful when the
	// noise floor is below 5%.
	noise := float64(stripped[1])/float64(stripped[0]) - 1
	tol := 1.05
	if noise > 0.05 {
		tol = 1.0 + noise
		t.Logf("noise floor %.1f%% exceeds 5%%: widening the gate to %.2fx", 100*noise, tol)
	}
	t.Logf("stripped %v, instrumented %v: overhead %.3fx (gate %.2fx, noise %.1f%%)",
		stripped[0], instrumented[0], ratio, tol, 100*noise)
	if ratio > tol {
		t.Errorf("instrumented replay %.3fx the stripped time, gate is %.2fx", ratio, tol)
	}
}

// BenchmarkMetricsOverhead records the stripped and instrumented fused
// serial replay side by side: the committed number behind the
// TestMetricsOverheadGate assertion.
func BenchmarkMetricsOverhead(b *testing.B) {
	if err := buildReplayTrace(); err != nil {
		b.Fatal(err)
	}
	replay := func(b *testing.B, sm *stream.Metrics, tm *tracestore.Metrics) {
		b.SetBytes(int64(len(replayTrace.ptrc)))
		for i := 0; i < b.N; i++ {
			obsReplayOnce(b, sm, tm)
		}
		b.ReportMetric(float64(replayTrace.n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpackets/s")
	}
	b.Run("stripped", func(b *testing.B) {
		replay(b, nil, nil)
	})
	b.Run("instrumented", func(b *testing.B) {
		reg := obs.NewRegistry()
		sm := stream.NewMetrics(reg)
		tm := tracestore.NewMetrics(reg)
		b.ResetTimer()
		replay(b, sm, tm)
	})
}
