package main

import (
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func quiet() *log.Logger { return log.New(io.Discard, "", 0) }

// TestSuiteAndCompareRoundTrip runs the pinned suite at tiny scale,
// records it, and pins its entry list: three pipeline widths, one
// sequential replay and one serial record per codec, one packed
// recode transcode, the engine suite and the fits. It then verifies the
// compare path: identical records pass any gate, inflated baselines
// trip it, and missing benchmarks fail.
func TestSuiteAndCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	args := []string{
		"-out", out,
		"-packets", "20000", "-replay-packets", "10000", "-fit-n", "20000",
		"-min-time", "1ms", "-max-iters", "1",
	}
	if err := run(args, quiet()); err != nil {
		t.Fatal(err)
	}
	rec, err := readRecord(out)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schema != schema {
		t.Errorf("schema = %q, want %q", rec.Schema, schema)
	}
	// The record embeds the instrumented suite's snapshot; the deterministic
	// counters must show the workload actually ran — including the packed
	// codec's own read/write counters, proving the codec matrix really
	// exercised both encodings.
	if rec.Metrics == nil {
		t.Fatal("record has no metrics snapshot")
	}
	for _, name := range []string{
		"palu_stream_windows_total", "palu_ptrc_blocks_read_total", "palu_ptrc_blocks_written_total",
		"palu_ptrc_packed_blocks_read_total", "palu_ptrc_packed_blocks_written_total",
	} {
		m, ok := rec.Metrics.Get(name)
		if !ok || m.Value == 0 {
			t.Errorf("snapshot metric %s missing or zero: %+v", name, m)
		}
	}
	want := []string{
		"pipeline-w1", "pipeline-w2", "pipeline-w4",
		"ptrc-replay-sequential", "ptrc-record-w1",
		"ptrc-replay-sequential-packed", "ptrc-record-w1-packed",
		"ptrc-transcode-recode",
		"engine-suite-replay",
		"fit-zm", "fit-registry",
	}
	if len(rec.Results) != len(want) {
		t.Fatalf("suite ran %d benchmarks, want %d: %+v", len(rec.Results), len(want), rec.Results)
	}
	for i, name := range want {
		b := rec.Results[i]
		if b.Name != name {
			t.Errorf("benchmark %d: name %q, want %q", i, b.Name, name)
		}
		if b.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %v", name, b.NsPerOp)
		}
		if b.CPUs <= 0 {
			t.Errorf("%s: entry records no CPU count", name)
		}
	}
	// Every replay entry names its codec and archive size; the packed archive must differ in size from deflate's
	// on the same trace, or the suite silently benchmarked one codec.
	var deflateBytes, packedBytes uint64
	for _, b := range rec.Results {
		if !strings.HasPrefix(b.Name, "ptrc-replay") {
			continue
		}
		if b.Codec == "" || b.ArchiveBytes == 0 {
			t.Errorf("%s: codec %q / archive bytes %d not recorded", b.Name, b.Codec, b.ArchiveBytes)
		}
		switch b.Codec {
		case "deflate":
			deflateBytes = b.ArchiveBytes
		case "packed":
			packedBytes = b.ArchiveBytes
		}
	}
	if deflateBytes == 0 || packedBytes == 0 || deflateBytes == packedBytes {
		t.Errorf("replay matrix archive sizes deflate=%d packed=%d: want both codecs, distinct sizes",
			deflateBytes, packedBytes)
	}

	// Write-path entries: every record benchmark produces an archive
	// byte-identical to the replay archive of the same codec, and the
	// recode transcode lands on the packed one.
	for _, b := range rec.Results {
		switch {
		case strings.HasPrefix(b.Name, "ptrc-record"):
			want := deflateBytes
			if b.Codec == "packed" {
				want = packedBytes
			}
			if b.ArchiveBytes != want {
				t.Errorf("%s: archive bytes %d, want %d (record/replay archive equivalence)",
					b.Name, b.ArchiveBytes, want)
			}
		case b.Name == "ptrc-transcode-recode":
			if b.ArchiveBytes != packedBytes {
				t.Errorf("%s: archive bytes %d, want packed %d", b.Name, b.ArchiveBytes, packedBytes)
			}
		}
	}

	// Pipeline entries record the worker count they ran at.
	for i, workers := range []int{1, 2, 4} {
		if b := rec.Results[i]; b.Workers != workers {
			t.Errorf("%s: workers = %d, want %d", b.Name, b.Workers, workers)
		}
	}

	// Self-compare under any gate passes (ratio 1.0 exactly).
	if failed := compare(quiet(), rec, rec, 1.0); len(failed) != 0 {
		t.Fatalf("self-compare failed: %v", failed)
	}

	// A baseline claiming everything was 1000x faster trips the gate.
	fast := rec
	fast.Results = append([]Bench(nil), rec.Results...)
	for i := range fast.Results {
		fast.Results[i].NsPerOp /= 1000
	}
	if failed := compare(quiet(), fast, rec, 2); len(failed) != len(rec.Results) {
		t.Fatalf("inflated baseline should trip every benchmark, tripped %v", failed)
	}

	// The same inflated baseline on different hardware must NOT trip the
	// ns/op gate: throughput is only comparable at equal CPU counts.
	foreign := fast
	foreign.Results = append([]Bench(nil), fast.Results...)
	for i := range foreign.Results {
		foreign.Results[i].CPUs = rec.Results[i].CPUs + 96
	}
	if failed := compare(quiet(), foreign, rec, 2); len(failed) != 0 {
		t.Fatalf("cross-hardware ns/op should not gate, tripped %v", failed)
	}

	// The allocs/op gate is hardware-independent: an alloc regression
	// trips even across differing CPU counts.
	lean := rec
	lean.Results = append([]Bench(nil), rec.Results...)
	for i := range lean.Results {
		lean.Results[i].CPUs = rec.Results[i].CPUs + 96
		lean.Results[i].AllocsPerOp = rec.Results[i].AllocsPerOp/10 + 1
	}
	if failed := compare(quiet(), lean, rec, 2); len(failed) == 0 {
		t.Fatal("allocs/op regression should gate regardless of CPU count")
	}

	// A gate of 0 reports but never fails.
	if failed := compare(quiet(), fast, rec, 0); len(failed) != 0 {
		t.Fatalf("disabled gate should not fail, got %v", failed)
	}

	// A baseline naming a benchmark the suite no longer runs fails.
	missing := rec
	missing.Results = append([]Bench(nil), rec.Results...)
	missing.Results[0].Name = "gone"
	failed := compare(quiet(), missing, rec, 1000)
	if len(failed) != 1 || !strings.Contains(failed[0], "missing") {
		t.Fatalf("missing benchmark should fail the compare, got %v", failed)
	}
}

// TestReadRecordRejectsBadSchema pins that only the current schema
// loads: an unknown schema and an older palu-bench schema are both
// rejected, as is a missing file.
func TestReadRecordRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.json")
	for _, bad := range []string{"other", "palu-bench-v5"} {
		if err := os.WriteFile(p, []byte(`{"schema":"`+bad+`","benchmarks":[]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readRecord(p); err == nil {
			t.Fatalf("schema %q accepted", bad)
		}
	}
	if _, err := readRecord(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("absent file accepted")
	}
}

func TestMeasureReportsError(t *testing.T) {
	if _, err := measure("boom", time.Millisecond, 1, func() error {
		return os.ErrInvalid
	}); err == nil {
		t.Fatal("measure swallowed the workload error")
	}
}
