package tracestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hybridplaw/internal/obs"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/testenv"
)

// TestMetricsRoundTrip pins the exact block/byte accounting of an
// archive written and replayed with instrumentation: write counters
// match the archive's index totals, and the sequential read counters
// mirror the write counters exactly.
func TestMetricsRoundTrip(t *testing.T) {
	ps := synthPackets(11, 3000, 200, 7)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)

	var buf bytes.Buffer
	if _, err := Record(&buf, stream.NewSliceSource(ps), WriterOptions{
		BlockSize: 512, Metrics: m,
	}); err != nil {
		t.Fatal(err)
	}
	info, err := Info(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.BlocksWritten.Value(); got != int64(info.Blocks) {
		t.Errorf("blocks written counter = %d, index says %d", got, info.Blocks)
	}
	if got := m.WriteRawBytes.Value(); got != info.RawBytes {
		t.Errorf("write raw bytes = %d, index says %d", got, info.RawBytes)
	}
	if got := m.WriteCompressedBytes.Value(); got != info.CompressedBytes {
		t.Errorf("write compressed bytes = %d, index says %d", got, info.CompressedBytes)
	}
	if got := testenv.Metric(t, reg.Snapshot(), "palu_ptrc_pack_spans_total").Value; got != int64(info.Blocks) {
		t.Errorf("pack spans = %d, want %d", got, info.Blocks)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r.SetMetrics(m)
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if n != len(ps) {
		t.Fatalf("replayed %d packets, want %d", n, len(ps))
	}
	if got := m.BlocksRead.Value(); got != int64(info.Blocks) {
		t.Errorf("blocks read counter = %d, want %d", got, info.Blocks)
	}
	if got := m.ReadCompressedBytes.Value(); got != info.CompressedBytes {
		t.Errorf("read compressed bytes = %d, want %d", got, info.CompressedBytes)
	}
	if got := m.ReadRawBytes.Value(); got != info.RawBytes {
		t.Errorf("read raw bytes = %d, want %d", got, info.RawBytes)
	}
	if got := testenv.Metric(t, reg.Snapshot(), "palu_ptrc_unpack_spans_total").Value; got != int64(info.Blocks) {
		t.Errorf("unpack spans = %d, want %d", got, info.Blocks)
	}
	if got := m.CRCFailures.Value(); got != 0 {
		t.Errorf("CRC failures = %d on a clean archive", got)
	}
}

// TestMetricsCRCFailure pins that a corrupted block payload lands in the
// CRC failure counter and leaves the block-read counter untouched for
// that block.
func TestMetricsCRCFailure(t *testing.T) {
	ps := synthPackets(17, 600, 50, 0)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 1024})
	// Flip one byte inside the first block's stored payload.
	data[len(fileMagic)+1+blockHeaderLen+3] ^= 0xff
	m := NewMetrics(obs.NewRegistry())
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r.SetMetrics(m)
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("expected corruption error, got %v", r.Err())
	}
	if got := m.CRCFailures.Value(); got != 1 {
		t.Errorf("CRC failures = %d, want 1", got)
	}
	if got := m.BlocksRead.Value(); got != 0 {
		t.Errorf("blocks read = %d after CRC reject, want 0", got)
	}
}

// TestInfoFileBlocks pins the per-block table against the aggregate
// info: the block stats must tile the archive totals exactly.
func TestInfoFileBlocks(t *testing.T) {
	ps := synthPackets(19, 2500, 100, 5)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 512})
	path := filepath.Join(t.TempDir(), "x.ptrc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	info, blocks, err := InfoFileBlocks(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := InfoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info != want {
		t.Fatalf("InfoFileBlocks info %+v != InfoFile %+v", info, want)
	}
	if len(blocks) != info.Blocks {
		t.Fatalf("block table has %d entries, info says %d", len(blocks), info.Blocks)
	}
	var packets, valid, raw, comp int64
	for i, b := range blocks {
		if b.Packets <= 0 || b.Valid < 0 || b.Valid > int64(b.Packets) {
			t.Fatalf("block %d has inconsistent counts: %+v", i, b)
		}
		packets += int64(b.Packets)
		valid += b.Valid
		raw += int64(b.RawBytes)
		comp += int64(b.CompressedBytes)
	}
	if packets != info.Packets || valid != info.ValidPackets ||
		raw != info.RawBytes || comp != info.CompressedBytes {
		t.Fatalf("block table sums (p=%d v=%d r=%d c=%d) disagree with info %+v",
			packets, valid, raw, comp, info)
	}
}
