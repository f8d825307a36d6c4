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
// records it, and verifies the compare path: identical records pass any
// gate, inflated baselines trip it, and missing benchmarks fail.
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
	if rec.Schema != schemaV6 {
		t.Errorf("schema = %q, want %q", rec.Schema, schemaV6)
	}
	// v3+ embeds the instrumented suite's snapshot; the deterministic
	// counters must show the workload actually ran — including the packed
	// codec's own read/write counters, proving the codec matrix really
	// exercised both encodings.
	if rec.Metrics == nil {
		t.Fatal("v4 record has no metrics snapshot")
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
		"pipeline-reduce-serial", "pipeline-reduce-sharded",
		"pipeline-w1-s1", "pipeline-w1-s4", "pipeline-w1-s8",
		"pipeline-w2-s1", "pipeline-w2-s4", "pipeline-w2-s8",
		"pipeline-w4-s1", "pipeline-w4-s4", "pipeline-w4-s8",
		"ptrc-replay-sequential", "ptrc-replay-parallel",
		"ptrc-record-w1", "ptrc-record-w2", "ptrc-record-w4",
		"ptrc-replay-sequential-packed", "ptrc-replay-parallel-packed",
		"ptrc-record-w1-packed", "ptrc-record-w2-packed", "ptrc-record-w4-packed",
		"ptrc-transcode-passthrough", "ptrc-transcode-recode",
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
	// Every replay entry names its codec and archive size (the v4
	// additions); the packed archive must differ in size from deflate's
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

	// v5 write-path entries: every record benchmark names its worker
	// count and produces an archive byte-identical to the replay
	// archive of the same codec (the pipelined writer's equivalence
	// guarantee showing up in the committed record); the passthrough
	// transcode reproduces the deflate archive byte count exactly, and
	// the recode transcode lands on the packed one.
	for _, b := range rec.Results {
		switch {
		case strings.HasPrefix(b.Name, "ptrc-record"):
			if b.Workers < 1 {
				t.Errorf("%s: writer worker count %d not recorded", b.Name, b.Workers)
			}
			want := deflateBytes
			if b.Codec == "packed" {
				want = packedBytes
			}
			if b.ArchiveBytes != want {
				t.Errorf("%s: archive bytes %d, want %d (serial/parallel equivalence)",
					b.Name, b.ArchiveBytes, want)
			}
		case b.Name == "ptrc-transcode-passthrough":
			if b.ArchiveBytes != deflateBytes {
				t.Errorf("%s: archive bytes %d, want deflate %d", b.Name, b.ArchiveBytes, deflateBytes)
			}
		case b.Name == "ptrc-transcode-recode":
			if b.ArchiveBytes != packedBytes {
				t.Errorf("%s: archive bytes %d, want packed %d", b.Name, b.ArchiveBytes, packedBytes)
			}
		}
	}

	// The matrix point {1,1} is the serial pin measured once: identical
	// numbers under both names, with the matrix geometry recorded.
	serial, w1s1 := rec.Results[0], rec.Results[2]
	if serial.NsPerOp != w1s1.NsPerOp || serial.Workers != 1 || serial.Shards != 1 {
		t.Errorf("serial pin and w1-s1 should be one measurement: %+v vs %+v", serial, w1s1)
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

// TestReadRecordAcceptsV1 pins baseline compatibility: a v1 record (no
// per-entry CPUs) still loads, and its entries inherit the record-level
// CPU count for comparison purposes.
func TestReadRecordAcceptsV1(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "v1.json")
	v1 := `{"schema":"palu-bench-v1","go":"go1.0","cpus":4,"benchmarks":[
		{"name":"pipeline-reduce-serial","ns_per_op":100,"allocs_per_op":5,"bytes_per_op":10}]}`
	if err := os.WriteFile(p, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := readRecord(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := entryCPUs(rec.Results[0], rec); got != 4 {
		t.Fatalf("v1 entry CPUs = %d, want record-level 4", got)
	}
}

func TestReadRecordRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(p, []byte(`{"schema":"other","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRecord(p); err == nil {
		t.Fatal("bad schema accepted")
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
