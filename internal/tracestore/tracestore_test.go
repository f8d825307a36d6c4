package tracestore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hybridplaw/internal/stream"
	"hybridplaw/internal/xrand"
)

// synthPackets builds a deterministic heavy-tailed-ish packet sequence
// with invalid packets sprinkled in, exercising repeats, self-loops and
// large ID jumps.
func synthPackets(seed uint64, n, nodes int, invalidEvery int) []stream.Packet {
	rng := xrand.New(seed)
	ps := make([]stream.Packet, 0, n)
	for len(ps) < n {
		src := uint32(rng.Intn(nodes))
		dst := uint32(rng.Intn(nodes))
		// Repeat popular pairs: heavy-tailed multiplicities compress and
		// decode differently from unique pairs.
		reps := 1
		if rng.Bernoulli(0.3) {
			reps = 1 + rng.Intn(8)
		}
		for k := 0; k < reps && len(ps) < n; k++ {
			p := stream.Packet{Src: src, Dst: dst, Valid: true}
			if invalidEvery > 0 && len(ps)%invalidEvery == invalidEvery-1 {
				p.Valid = false
			}
			ps = append(ps, p)
		}
	}
	return ps
}

// writeArchive archives packets with the given options, failing the test
// on error.
func writeArchive(t *testing.T, ps []stream.Packet, opts WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := Record(&buf, stream.NewSliceSource(ps), opts)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if n != int64(len(ps)) {
		t.Fatalf("Record wrote %d packets, want %d", n, len(ps))
	}
	return buf.Bytes()
}

// drain reads a source to exhaustion.
func drain(t *testing.T, src stream.PacketSource) []stream.Packet {
	t.Helper()
	var out []stream.Packet
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, p)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("source error after %d packets: %v", len(out), err)
	}
	return out
}

func assertSameTrace(t *testing.T, got, want []stream.Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packet %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRoundTripSequential(t *testing.T) {
	// Sizes chosen around block boundaries: empty blocks, exactly one
	// block, one packet over, several blocks plus a partial tail.
	const block = 64
	for _, n := range []int{1, 2, block - 1, block, block + 1, 3*block + 17} {
		ps := synthPackets(uint64(n), n, 1000, 7)
		data := writeArchive(t, ps, WriterOptions{BlockSize: block})
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		assertSameTrace(t, drain(t, r), ps)
		if r.PacketsRead() != int64(n) {
			t.Errorf("n=%d: PacketsRead = %d", n, r.PacketsRead())
		}
	}
}

// TestRoundTripProperty is the randomized property test: for random
// lengths, block sizes, node ranges and invalid densities, PTRC
// write→read preserves the exact packet sequence — including invalid
// packets.
func TestRoundTripProperty(t *testing.T) {
	rng := xrand.New(20260729)
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(4000)
		block := 1 + rng.Intn(300)
		nodes := 1 + rng.Intn(1<<(1+rng.Intn(20)))
		invalidEvery := rng.Intn(10) // 0 = no invalid packets
		ps := synthPackets(rng.Uint64(), n, nodes, invalidEvery)
		// Occasionally include extreme IDs to cover the full uint32 range.
		if rng.Bernoulli(0.3) {
			for k := 0; k < 5 && k < len(ps); k++ {
				ps[rng.Intn(len(ps))].Src = ^uint32(0) - uint32(rng.Intn(3))
				ps[rng.Intn(len(ps))].Dst = ^uint32(0) - uint32(rng.Intn(3))
			}
		}
		data := writeArchive(t, ps, WriterOptions{BlockSize: block})

		seq, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("trial %d (n=%d block=%d): %v", trial, n, block, err)
		}
		assertSameTrace(t, drain(t, seq), ps)
	}
}

// TestCSVToPTRCToCSV checks the conversion helpers compose to the
// identity on the CSV representation.
func TestCSVToPTRCToCSV(t *testing.T) {
	ps := synthPackets(9, 2500, 3000, 5)
	var csv1 bytes.Buffer
	if err := stream.WriteTraceCSV(&csv1, ps); err != nil {
		t.Fatal(err)
	}
	var ptrc bytes.Buffer
	n, err := CSVToPTRC(bytes.NewReader(csv1.Bytes()), &ptrc, WriterOptions{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(ps)) {
		t.Fatalf("CSVToPTRC converted %d packets, want %d", n, len(ps))
	}
	var csv2 bytes.Buffer
	if n, err = PTRCToCSV(bytes.NewReader(ptrc.Bytes()), &csv2); err != nil {
		t.Fatal(err)
	}
	if n != int64(len(ps)) {
		t.Fatalf("PTRCToCSV converted %d packets, want %d", n, len(ps))
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Error("CSV → PTRC → CSV is not the identity")
	}
}

func TestInfo(t *testing.T) {
	ps := synthPackets(4, 5000, 2000, 6)
	valid := int64(0)
	for _, p := range ps {
		if p.Valid {
			valid++
		}
	}
	data := writeArchive(t, ps, WriterOptions{BlockSize: 1024})
	info, err := Info(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Packets != int64(len(ps)) || info.ValidPackets != valid {
		t.Errorf("Info counts %d/%d, want %d/%d", info.Packets, info.ValidPackets, len(ps), valid)
	}
	if info.Blocks != (len(ps)+1023)/1024 {
		t.Errorf("Info.Blocks = %d", info.Blocks)
	}
	if info.FileSize != int64(len(data)) {
		t.Errorf("Info.FileSize = %d, want %d", info.FileSize, len(data))
	}
	if info.CompressedBytes <= 0 || info.RawBytes < info.CompressedBytes {
		t.Errorf("implausible byte totals: raw %d, compressed %d", info.RawBytes, info.CompressedBytes)
	}
}

func TestEmptyArchive(t *testing.T) {
	data := writeArchive(t, nil, WriterOptions{})
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, r); len(got) != 0 {
		t.Errorf("empty archive yielded %d packets", len(got))
	}
	info, err := Info(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocks != 0 || info.Packets != 0 {
		t.Errorf("empty archive info: %+v", info)
	}
}

// TestArchiveBytesPinned pins the writer's output byte for byte: a
// fixed two-block trace (one full default-size block and a partial one)
// and the empty archive, both under zero-value options. The digests
// were taken from the packed-codec archives of the writer that still
// had DEFLATE, so every packed archive it wrote — window caches
// included — is what this writer produces.
func TestArchiveBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		ps     []stream.Packet
		size   int
		sha256 string
	}{
		{"two blocks", synthPackets(29, DefaultBlockSize+4000, 5000, 9), 236453,
			"36656b39b3bee2ecd473adb09e5c0ebbf955fb594e22e528ea803fe3d003c668"},
		{"empty", nil, 44,
			"224a995322eec76c9ad0859b5ccc1045e568f3e51929570dca5310d0428341f6"},
	} {
		data := writeArchive(t, c.ps, WriterOptions{})
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != c.size || got != c.sha256 {
			t.Errorf("%s: archive is %d bytes with SHA-256 %s, want %d bytes with %s",
				c.name, len(data), got, c.size, c.sha256)
		}
	}
}

// TestPipelineReplayEquivalence runs the same trace through the pipeline
// from the original slice and from the reader, and requires
// float-identical ensembles.
func TestPipelineReplayEquivalence(t *testing.T) {
	ps := synthPackets(12, 30000, 4000, 9)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 4096})
	cfg := stream.PipelineConfig{NV: 5000}

	run := func(src stream.PacketSource) (*stream.EnsembleSink, stream.PipelineStats) {
		sink := stream.NewEnsembleSink()
		stats, err := stream.Run(src, cfg, sink)
		if err != nil {
			t.Fatal(err)
		}
		return sink, stats
	}
	refSink, refStats := run(stream.NewSliceSource(ps))

	seq, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	seqSink, seqStats := run(seq)

	if seqStats != refStats {
		t.Fatalf("stats diverge: ref %+v, seq %+v", refStats, seqStats)
	}
	if refStats.SourcePacketsRead != int64(len(ps)) {
		t.Errorf("SourcePacketsRead = %d, want %d", refStats.SourcePacketsRead, len(ps))
	}
	for _, q := range stream.Quantities {
		refMean, refSigma := refSink.Ensemble(q).Mean(), refSink.Ensemble(q).Sigma()
		mean, sigma := seqSink.Ensemble(q).Mean(), seqSink.Ensemble(q).Sigma()
		if len(mean) != len(refMean) {
			t.Fatalf("%v: bin counts differ", q)
		}
		for i := range refMean {
			if mean[i] != refMean[i] || sigma[i] != refSigma[i] {
				t.Fatalf("%v bin %d: replay ensemble not float-identical", q, i)
			}
		}
	}
}

// TestWriterConcatenatesSources checks RecordFrom can append multiple
// sources into one archive.
func TestWriterConcatenatesSources(t *testing.T) {
	a := synthPackets(1, 700, 100, 4)
	b := synthPackets(2, 900, 100, 0)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RecordFrom(stream.NewSliceSource(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RecordFrom(stream.NewSliceSource(b)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.total != int64(len(a)+len(b)) {
		t.Errorf("total = %d", w.total)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrace(t, drain(t, r), append(append([]stream.Packet{}, a...), b...))
}

func TestWriterOptionValidation(t *testing.T) {
	for _, size := range []int{maxBlockPackets + 1, -5} {
		_, err := NewWriter(&bytes.Buffer{}, WriterOptions{BlockSize: size})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("block size %d ", size)) {
			t.Errorf("BlockSize %d: error %v, want one naming the block size", size, err)
		}
	}
}

// failAfterWriter errors once its byte budget is spent — a stand-in for
// a full disk under the writer.
type failAfterWriter struct {
	budget int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.budget -= len(p); w.budget < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestWriterCommitError pins the failure path: a sink error surfaces
// from Write or Close, repeated Closes return the same error, and
// Write after a failed Close errors.
func TestWriterCommitError(t *testing.T) {
	ps := synthPackets(3, 20000, 300, 6)
	w, err := NewWriter(&failAfterWriter{budget: 4096}, WriterOptions{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	for _, p := range ps {
		if werr = w.Write(p); werr != nil {
			break
		}
	}
	if werr == nil {
		t.Fatal("sink error never surfaced from Write")
	}
	cerr := w.Close()
	if cerr == nil {
		t.Fatal("Close after a write failure must return the error")
	}
	if again := w.Close(); !errors.Is(again, cerr) && again.Error() != cerr.Error() {
		t.Fatalf("second Close: %v, want %v", again, cerr)
	}
	if werr = w.Write(ps[0]); werr == nil {
		t.Fatal("Write after failed Close must error")
	}
}
