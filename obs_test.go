// Root-level acceptance tests for internal/obs (DESIGN.md §11): the
// snapshot of an instrumented replay must not depend on the deprecated
// PipelineConfig.Workers field, and instruments must fire per block or
// window, never per packet.
package hybridplaw

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"hybridplaw/internal/obs"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/testenv"
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
	return buf.Bytes(), archiveInfo(t, buf.Bytes())
}

// archiveInfo summarizes an in-memory archive through InfoFile, the
// product's one summary path, by writing it under t.TempDir.
func archiveInfo(t *testing.T, data []byte) tracestore.ArchiveInfo {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.ptrc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := tracestore.InfoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestObsSnapshotEquivalenceAcrossConfigs replays one archive with
// PipelineConfig.Workers at 1, 2 and 4, each run against a fresh
// registry. The field is deprecated and ignored, so every snapshot must
// carry the same instruments with exactly the same counter and gauge
// values and the same timer observation counts; only the timers'
// durations vary. The first run's deterministic quantities are also
// checked against the pipeline stats and the archive index.
func TestObsSnapshotEquivalenceAcrossConfigs(t *testing.T) {
	raw, info := buildObsTrace(t)
	var base obs.Snapshot
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
		if !sort.StringsAreSorted(testenv.MetricNames(snap)) {
			t.Fatalf("w=%d: snapshot names not sorted", workers)
		}
		if i == 0 {
			base = snap
			// Pin the absolute values once (ingest spans count DecodeInto
			// calls, per block run *and* per mid-block window boundary;
			// TestMetricsInstrumentCountPin pins them exactly); later
			// configs then compare against numbers already checked
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
			for name, want := range checks {
				if m := testenv.Metric(t, snap, name); m.Value != want {
					t.Errorf("baseline %s = %d, want %d", name, m.Value, want)
				}
			}
			continue
		}
		if got, want := testenv.MetricNames(snap), testenv.MetricNames(base); !reflect.DeepEqual(got, want) {
			t.Fatalf("w=%d: snapshot key set diverges from baseline:\n%v\n%v", workers, got, want)
		}
		for j, m := range snap.Metrics {
			b := base.Metrics[j]
			if m.Type != b.Type || m.Value != b.Value || m.Count != b.Count {
				t.Errorf("w=%d: %s = %s value %d count %d, baseline %s value %d count %d",
					workers, m.Name, m.Type, m.Value, m.Count, b.Type, b.Value, b.Count)
			}
		}
	}
}

// obsReplayNV cuts the shared 1M-valid-packet archive into ten windows.
const obsReplayNV = 100_000

// obsReplayOnce replays the shared 1M-packet archive over the fused hot
// path (sequential reader) with the given instrumentation (nil =
// stripped) and returns the pipeline stats.
func obsReplayOnce(t testing.TB, sm *stream.Metrics, tm *tracestore.Metrics) stream.PipelineStats {
	src, err := tracestore.NewReader(bytes.NewReader(replayTrace.ptrc))
	if err != nil {
		t.Fatal(err)
	}
	src.SetMetrics(tm)
	stats, err := stream.Run(src, stream.PipelineConfig{
		NV: obsReplayNV, Metrics: sm,
	}, stream.NewEnsembleSink())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 10 {
		t.Fatalf("windows = %d, want 10", stats.Windows)
	}
	return stats
}

// replayIngestCalls is the exact number of DecodeInto calls the serial
// pipeline makes over the shared archive at window size nv: one per
// block, one more per window that closes before its block's last packet
// (the rest of that block is decoded by the next call), and the final
// call that reports end of stream.
func replayIngestCalls(t *testing.T, nv int64) int64 {
	src, err := tracestore.NewReader(bytes.NewReader(replayTrace.ptrc))
	if err != nil {
		t.Fatal(err)
	}
	calls, valid := int64(1), int64(0)
	for blk, ok := src.NextBlock(); ok; blk, ok = src.NextBlock() {
		calls++
		for i, p := range blk {
			if !p.Valid {
				continue
			}
			if valid++; valid%nv == 0 && i < len(blk)-1 {
				calls++
			}
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return calls
}

// TestMetricsInstrumentCountPin pins the structural fact behind the
// metrics cost contract (DESIGN.md §11): instruments fire per block or
// per window, never per packet. It replays the shared 1M-packet archive
// once over the fused serial hot path against a fresh registry and
// requires every instrument in the snapshot — counter, gauge, and the
// observation count of every timer and histogram — to equal its exact
// block- or window-derived value, so one extra Observe or Inc per packet
// anywhere on the replay path is off by about a million. It also
// requires the instrumented replay to allocate exactly as often as the
// stripped one. The wall-clock overhead ratio is a recorded number:
// BenchmarkMetricsOverhead.
func TestMetricsInstrumentCountPin(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-packet trace generation in -short mode")
	}
	if err := buildReplayTrace(); err != nil {
		t.Fatal(err)
	}
	info := archiveInfo(t, replayTrace.ptrc)
	reg := obs.NewRegistry()
	sm, tm := stream.NewMetrics(reg), tracestore.NewMetrics(reg)
	stats := obsReplayOnce(t, sm, tm)

	blocks, windows := int64(info.Blocks), int64(stats.Windows)
	ingest := replayIngestCalls(t, obsReplayNV)
	// Every instrument either of the two bundles registers. A timer is
	// listed twice: its histogram's observation count and its
	// _spans_total counter.
	want := map[string]int64{
		"palu_stream_packets_valid_total":          info.ValidPackets,
		"palu_stream_packets_invalid_total":        info.Packets - info.ValidPackets,
		"palu_stream_windows_total":                windows,
		"palu_stream_tail_discarded_packets_total": 0,
		"palu_stream_builder_alloc_total":          1,
		"palu_stream_builder_reuse_total":          windows,
		"palu_stream_ingest_ns":                    ingest,
		"palu_stream_ingest_spans_total":           ingest,
		"palu_stream_window_close_ns":              windows,
		"palu_stream_window_close_spans_total":     windows,
		"palu_stream_sink_ns":                      windows,
		"palu_stream_sink_spans_total":             windows,

		"palu_ptrc_blocks_read_total":            blocks,
		"palu_ptrc_read_compressed_bytes_total":  info.CompressedBytes,
		"palu_ptrc_read_raw_bytes_total":         info.RawBytes,
		"palu_ptrc_crc_failures_total":           0,
		"palu_ptrc_unpack_ns":                    blocks,
		"palu_ptrc_unpack_spans_total":           blocks,
		"palu_ptrc_blocks_written_total":         0,
		"palu_ptrc_write_raw_bytes_total":        0,
		"palu_ptrc_write_compressed_bytes_total": 0,
		"palu_ptrc_pack_ns":                      0,
		"palu_ptrc_pack_spans_total":             0,
	}
	snap := reg.Snapshot()
	seen := map[string]bool{}
	for _, m := range snap.Metrics {
		seen[m.Name] = true
		got := m.Value
		if m.Type == "histogram" {
			got = m.Count
		}
		w, ok := want[m.Name]
		if !ok {
			t.Errorf("instrument %s (%s) has no pinned count", m.Name, m.Type)
			continue
		}
		if got != w {
			t.Errorf("%s = %d, want %d", m.Name, got, w)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("snapshot missing %s", name)
		}
	}
	t.Logf("%d blocks, %d windows, %d ingest calls over %d packets",
		blocks, windows, ingest, info.Packets)

	// MemStats counts every goroutine's mallocs, and background runtime
	// work adds a stray few. With the collector paused those stay below
	// the run count, which AllocsPerRun's integer average absorbs.
	allocs := func(sm *stream.Metrics, tm *tracestore.Metrics) float64 {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(5, func() { obsReplayOnce(t, sm, tm) })
	}
	stripped, instrumented := allocs(nil, nil), allocs(sm, tm)
	if instrumented != stripped {
		t.Errorf("instrumented replay allocates %.0f times, stripped %.0f", instrumented, stripped)
	}
}

// BenchmarkMetricsOverhead records the stripped and instrumented fused
// serial replay side by side. The overhead ratio is a recorded number,
// not an assertion; TestMetricsInstrumentCountPin pins the per-block,
// per-window structure that keeps it small.
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
