// Root-level acceptance tests for internal/obs (DESIGN.md §11): the
// snapshot of an instrumented replay must be identically keyed across
// pipeline worker counts with exact equality for every
// deterministic quantity, and instruments must fire per block or
// window, never per packet.
package hybridplaw

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

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
			// Pin the absolute values once (ingest spans count DecodeInto
			// calls, per block run *and* per mid-block window boundary;
			// TestMetricsInstrumentCountPin pins them exactly, here they
			// are only held identical across configs);
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

// obsReplayNV cuts the shared 1M-valid-packet archive into ten windows.
const obsReplayNV = 100_000

// obsReplayOnce replays the shared 1M-packet archive over the fused
// serial hot path (sequential reader, one worker) with the given
// instrumentation (nil = stripped) and returns the pipeline stats.
func obsReplayOnce(t testing.TB, sm *stream.Metrics, tm *tracestore.Metrics) stream.PipelineStats {
	src, err := tracestore.NewReader(bytes.NewReader(replayTrace.ptrc))
	if err != nil {
		t.Fatal(err)
	}
	src.SetMetrics(tm)
	stats, err := stream.Run(src, stream.PipelineConfig{
		NV: obsReplayNV, Workers: 1, Metrics: sm,
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
	info, err := tracestore.Info(bytes.NewReader(replayTrace.ptrc), int64(len(replayTrace.ptrc)))
	if err != nil {
		t.Fatal(err)
	}
	if info.PackedBlocks != 0 {
		t.Fatalf("shared archive is %s, the pin expects DEFLATE blocks", info.CodecMix())
	}
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
		"palu_stream_window_pool_alloc_total":      0,
		"palu_stream_window_pool_reuse_total":      0,
		"palu_stream_builder_alloc_total":          1,
		"palu_stream_builder_reuse_total":          windows,
		"palu_stream_queue_windows":                0,
		"palu_stream_ingest_ns":                    ingest,
		"palu_stream_ingest_spans_total":           ingest,
		"palu_stream_reduce_ns":                    0,
		"palu_stream_reduce_spans_total":           0,
		"palu_stream_window_close_ns":              windows,
		"palu_stream_window_close_spans_total":     windows,
		"palu_stream_sink_ns":                      windows,
		"palu_stream_sink_spans_total":             windows,

		"palu_ptrc_blocks_read_total":            blocks,
		"palu_ptrc_read_compressed_bytes_total":  info.CompressedBytes,
		"palu_ptrc_read_raw_bytes_total":         info.RawBytes,
		"palu_ptrc_crc_failures_total":           0,
		"palu_ptrc_inflate_ns":                   blocks,
		"palu_ptrc_inflate_spans_total":          blocks,
		"palu_ptrc_packed_blocks_read_total":     0,
		"palu_ptrc_packed_read_bytes_total":      0,
		"palu_ptrc_unpack_ns":                    0,
		"palu_ptrc_unpack_spans_total":           0,
		"palu_ptrc_blocks_written_total":         0,
		"palu_ptrc_write_raw_bytes_total":        0,
		"palu_ptrc_write_compressed_bytes_total": 0,
		"palu_ptrc_packed_blocks_written_total":  0,
		"palu_ptrc_packed_written_bytes_total":   0,
		"palu_ptrc_deflate_ns":                   0,
		"palu_ptrc_deflate_spans_total":          0,
		"palu_ptrc_pack_ns":                      0,
		"palu_ptrc_pack_spans_total":             0,
	}
	snap := reg.Snapshot()
	seen := map[string]bool{}
	var rawbufs int64
	for _, m := range snap.Metrics {
		seen[m.Name] = true
		got := m.Value
		if m.Type == "histogram" {
			got = m.Count
		}
		// Which blocks need a fresh inflate buffer depends on block
		// sizes; every DEFLATE block takes exactly one, fresh or reused.
		if m.Name == "palu_ptrc_rawbuf_alloc_total" || m.Name == "palu_ptrc_rawbuf_reuse_total" {
			rawbufs += got
			continue
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
	if !seen["palu_ptrc_rawbuf_alloc_total"] || !seen["palu_ptrc_rawbuf_reuse_total"] {
		t.Error("snapshot missing the rawbuf counters")
	}
	if rawbufs != blocks {
		t.Errorf("rawbuf alloc + reuse = %d, want %d (one per DEFLATE block)", rawbufs, blocks)
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
