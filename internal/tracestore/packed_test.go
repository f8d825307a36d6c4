package tracestore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"hybridplaw/internal/obs"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/testenv"
	"hybridplaw/internal/xrand"
)

func TestPackedRoundTripSequential(t *testing.T) {
	// Sizes around block AND miniblock-group boundaries: a group is 256
	// packets, so exercise partial groups, exactly one group, one over.
	const block = 1 << 10
	for _, n := range []int{1, 2, 255, 256, 257, block - 1, block, block + 1, 3*block + 300} {
		ps := synthPackets(uint64(n), n, 1000, 7)
		data := writeArchive(t, ps, WriterOptions{BlockSize: block})
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		assertSameTrace(t, drain(t, r), ps)
	}
}

// TestPackedRoundTripProperty is the randomized property test over the
// packed codec's edge cases: random lengths, block sizes, node ranges,
// invalid densities, and occasional extreme IDs (forcing wide miniblock
// widths and the overflow-checked unpack path) must round-trip exactly.
func TestPackedRoundTripProperty(t *testing.T) {
	rng := xrand.New(20260808)
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(4000)
		block := 1 + rng.Intn(600)
		nodes := 1 + rng.Intn(1<<(1+rng.Intn(20)))
		invalidEvery := rng.Intn(10)
		ps := synthPackets(rng.Uint64(), n, nodes, invalidEvery)
		if rng.Bernoulli(0.4) {
			// Extreme IDs: miniblock references near ^uint32(0) and
			// max-width fields.
			for k := 0; k < 8 && k < len(ps); k++ {
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

// TestValidityRLERoundTrip pins the RLE validity mode: long valid runs
// (the common case: invalid packets are rare) must select RLE over the
// raw bitmap and decode identically, including the all-valid,
// all-invalid and leading-invalid edge cases.
func TestValidityRLERoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		valid func(i int) bool
	}{
		{"all valid", func(int) bool { return true }},
		{"all invalid", func(int) bool { return false }},
		{"leading invalid", func(i int) bool { return i >= 100 }},
		{"sparse invalid", func(i int) bool { return i%997 != 0 }},
		{"alternating", func(i int) bool { return i%2 == 0 }}, // raw wins
	}
	for _, c := range cases {
		ps := make([]stream.Packet, 2000)
		for i := range ps {
			ps[i] = stream.Packet{Src: uint32(i % 37), Dst: uint32(i % 11), Valid: c.valid(i)}
		}
		data := writeArchive(t, ps, WriterOptions{BlockSize: 1 << 11})
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertSameTrace(t, drain(t, r), ps)
	}
	// The encoder must pick the smaller form: all-valid packets RLE to a
	// few bytes, while alternating validity degenerates RLE to ~1 byte
	// per packet and must fall back to the raw bitmap.
	allValid := make([]stream.Packet, 1024)
	for i := range allValid {
		allValid[i] = stream.Packet{Valid: true}
	}
	if v := appendValidity(nil, allValid); len(v) > 8 {
		t.Errorf("all-valid validity section is %d bytes, want RLE-small", len(v))
	}
	alternating := make([]stream.Packet, 1024)
	for i := range alternating {
		alternating[i] = stream.Packet{Valid: i%2 == 0}
	}
	if v := appendValidity(nil, alternating); len(v) != 1+1024/8 {
		t.Errorf("alternating validity section is %d bytes, want raw bitmap %d", len(v), 1+1024/8)
	}
}

// TestMiniblockProperty pins packMiniblock/decodeMiniblock directly:
// random value distributions — uniform, heavy-tailed with outliers
// (exception-heavy), constant (width 0), and near-overflow references —
// must decode to exactly the packed values and consume the miniblock
// exactly.
func TestMiniblockProperty(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(packedGroup)
		vals := make([]uint32, m)
		base := uint32(rng.Uint64())
		switch trial % 4 {
		case 0: // uniform narrow
			for i := range vals {
				vals[i] = base%1000 + uint32(rng.Intn(64))
			}
		case 1: // heavy-tailed: mostly narrow, a few huge outliers
			for i := range vals {
				vals[i] = uint32(rng.Intn(16))
				if rng.Bernoulli(0.05) {
					vals[i] = uint32(rng.Uint64())
				}
			}
		case 2: // constant
			for i := range vals {
				vals[i] = base
			}
		case 3: // near the uint32 ceiling: ref + mask can overflow
			for i := range vals {
				vals[i] = ^uint32(0) - uint32(rng.Intn(1<<rng.Intn(20)))
			}
		}
		enc := packMiniblock(nil, vals)
		out := make([]uint32, m)
		pos, err := decodeMiniblock(enc, 0, m, out)
		if err != nil {
			t.Fatalf("trial %d (m=%d): decode: %v", trial, m, err)
		}
		if pos != len(enc) {
			t.Fatalf("trial %d: decode consumed %d of %d bytes", trial, pos, len(enc))
		}
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("trial %d value %d: got %d, want %d", trial, i, out[i], vals[i])
			}
		}
	}
}

// TestPackedInfo pins the size accounting of the index: each block's
// RawBytes is the canonical raw encoding of its packets (validity
// bitmap plus uvarint (src, dst) pairs), computed here independently of
// the encoder, and Info over the bytes agrees with InfoFileBlocks.
func TestPackedInfo(t *testing.T) {
	const block = 512
	ps := synthPackets(21, 2500, 100000, 5)
	data := writeArchive(t, ps, WriterOptions{BlockSize: block})
	path := filepath.Join(t.TempDir(), "p.ptrc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	info, blocks, err := InfoFileBlocks(path)
	if err != nil {
		t.Fatal(err)
	}
	var tmp [binary.MaxVarintLen64]byte
	for i, b := range blocks {
		pkts := ps[i*block : min((i+1)*block, len(ps))]
		raw := (len(pkts) + 7) / 8
		for _, p := range pkts {
			raw += binary.PutUvarint(tmp[:], uint64(p.Src)) + binary.PutUvarint(tmp[:], uint64(p.Dst))
		}
		if b.Packets != len(pkts) || b.RawBytes != raw {
			t.Errorf("block %d: %d packets, %d raw bytes; want %d, %d", i, b.Packets, b.RawBytes, len(pkts), raw)
		}
	}
	got, err := Info(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Errorf("Info %+v, want InfoFileBlocks %+v", got, info)
	}
}

// TestPackedCorruption runs the damaged-archive invariants over the
// packed payload sections: truncations and bit flips must surface as
// ErrCorrupt from the reader, never a panic or silent misread, and
// truncations as ErrCorrupt from Info too.
func TestPackedCorruption(t *testing.T) {
	ps := synthPackets(31, 3000, 500, 8)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 512})
	for _, keep := range []int{40, len(data) / 2, len(data) - footerLen} {
		trunc := data[:keep]
		expectCorrupt(t, "truncated-seq", sequentialErr(trunc))
		expectCorrupt(t, "truncated-info", infoErr(trunc))
	}
	for _, at := range []int{
		len(fileMagic) + 1 + blockHeaderLen + 2,  // validity section
		len(fileMagic) + 1 + blockHeaderLen + 40, // miniblock body
		len(fileMagic) + 1 + 12,                  // header CRC field
	} {
		mutated := append([]byte(nil), data...)
		mutated[at] ^= 0xFF
		expectCorrupt(t, "flip-seq", sequentialErr(mutated))
	}
}

// TestBlockHeaderCodecPlausibility pins the header plausibility bound:
// a header whose claimed raw length exceeds the packed codec's
// maxPackedRatio expansion of its stored bytes is rejected before it
// can size an allocation. A packed block retagged 0x01 must fail as a
// DEFLATE block, not be misread.
func TestBlockHeaderCodecPlausibility(t *testing.T) {
	var b [blockHeaderLen]byte
	putBlockHeader(b[:], blockHeader{packets: 1000, rawLen: 8000, compLen: 20})
	if _, err := parseBlockHeader(b[:]); err != nil {
		t.Errorf("header within 512x rejected: %v", err)
	}
	putBlockHeader(b[:], blockHeader{packets: 1000, rawLen: 8000, compLen: 10})
	expectCorrupt(t, "header beyond 512x", func() error {
		_, err := parseBlockHeader(b[:])
		return err
	}())
	ps := synthPackets(33, 1000, 200, 0)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 512})
	mutated := append([]byte(nil), data...)
	mutated[len(fileMagic)] = tagDeflateBlock
	expectDeflateRemoved(t, "packed block retagged deflate", sequentialErr(mutated))
}

// TestMetricsPacked pins the metrics of the fused DecodeInto path:
// every block lands in the block counters and the unpack timer, and
// the canonical-raw accounting invariant (ReadRawBytes ==
// info.RawBytes) holds.
func TestMetricsPacked(t *testing.T) {
	ps := synthPackets(25, 3000, 200, 7)
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
		t.Errorf("blocks written = %d, want %d", got, info.Blocks)
	}
	if got := testenv.Metric(t, reg.Snapshot(), "palu_ptrc_pack_spans_total").Value; got != int64(info.Blocks) {
		t.Errorf("pack spans = %d, want %d", got, info.Blocks)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r.SetMetrics(m)
	w := stream.NewPairWindow(1 << 20)
	for {
		if _, _, _, ok := r.DecodeInto(w); !ok {
			break
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if got := m.BlocksRead.Value(); got != int64(info.Blocks) {
		t.Errorf("blocks read = %d, want %d", got, info.Blocks)
	}
	if got := testenv.Metric(t, reg.Snapshot(), "palu_ptrc_unpack_spans_total").Value; got != int64(info.Blocks) {
		t.Errorf("unpack spans = %d, want %d", got, info.Blocks)
	}
	if got := m.ReadRawBytes.Value(); got != info.RawBytes {
		t.Errorf("read raw bytes = %d, want %d", got, info.RawBytes)
	}
	if got := m.ReadCompressedBytes.Value(); got != info.CompressedBytes {
		t.Errorf("read compressed bytes = %d, want %d", got, info.CompressedBytes)
	}
}
