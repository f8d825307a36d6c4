package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridplaw/internal/stream"
)

// drainUntilErr reads a source until it stops and returns the error.
func drainUntilErr(src stream.PacketSource) error {
	for {
		if _, ok := src.Next(); !ok {
			return src.Err()
		}
	}
}

// expectCorrupt asserts err wraps ErrCorrupt and carries a descriptive
// message.
func expectCorrupt(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: expected error, got nil", name)
		return
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("%s: error does not wrap ErrCorrupt: %v", name, err)
	}
	if msg := strings.TrimPrefix(err.Error(), ErrCorrupt.Error()); strings.TrimSpace(msg) == "" {
		t.Errorf("%s: error has no description beyond the sentinel", name)
	}
}

// sequentialErr replays a (possibly damaged) archive sequentially and
// returns the terminating error.
func sequentialErr(data []byte) error {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	return drainUntilErr(r)
}

// infoErr reads a (possibly damaged) archive's footer and index through
// Info — the seekable path, which never decodes a block — and returns
// its error.
func infoErr(data []byte) error {
	_, err := Info(bytes.NewReader(data), int64(len(data)))
	return err
}

func TestCorruptionTruncated(t *testing.T) {
	ps := synthPackets(5, 3000, 500, 8)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 512})
	cuts := []struct {
		name string
		keep int
	}{
		{"mid first block", 40},
		{"mid later block", len(data) / 2},
		{"missing footer", len(data) - footerLen},
		{"missing half the footer", len(data) - footerLen/2},
		{"only magic", len(fileMagic)},
		{"empty file", 0},
		{"partial magic", 3},
	}
	for _, c := range cuts {
		trunc := data[:c.keep]
		expectCorrupt(t, "sequential/"+c.name, sequentialErr(trunc))
		expectCorrupt(t, "info/"+c.name, infoErr(trunc))
	}
}

func TestCorruptionBitFlips(t *testing.T) {
	ps := synthPackets(6, 3000, 500, 8)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 512})
	// index marks the flips the footer/index path can see: Info never
	// reads a block, so block damage is the readers' to catch.
	flips := []struct {
		name  string
		at    int
		index bool
	}{
		{"file magic", 2, true},
		{"first block payload", len(fileMagic) + 1 + blockHeaderLen + 5, false},
		{"block header CRC field", len(fileMagic) + 1 + 12, false},
		{"footer magic", len(data) - 3, true},
		{"footer index offset", len(data) - footerLen + 1, true},
	}
	for _, f := range flips {
		mutated := append([]byte(nil), data...)
		mutated[f.at] ^= 0xFF
		expectCorrupt(t, "sequential/"+f.name, sequentialErr(mutated))
		if f.index {
			expectCorrupt(t, "info/"+f.name, infoErr(mutated))
		}
	}
}

func TestCorruptionGarbageFooter(t *testing.T) {
	ps := synthPackets(7, 1000, 500, 0)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 512})
	garbage := append([]byte(nil), data...)
	for i := len(garbage) - footerLen; i < len(garbage); i++ {
		garbage[i] = 0xA5
	}
	expectCorrupt(t, "info", infoErr(garbage))
}

func TestCorruptionIndexPayload(t *testing.T) {
	ps := synthPackets(8, 2000, 500, 5)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 512})
	// The index payload sits between the index record header and the
	// footer; flip a byte in its middle. The CRC check must reject it on
	// both paths: the sequential reader and Info via the footer.
	idxPayloadStart := len(data) - footerLen
	// Walk back: footer, then payload of length read from footer.
	n := int(uint32(data[len(data)-16]) | uint32(data[len(data)-15])<<8 |
		uint32(data[len(data)-14])<<16 | uint32(data[len(data)-13])<<24)
	idxPayloadStart -= n
	mutated := append([]byte(nil), data...)
	mutated[idxPayloadStart+n/2] ^= 0x55
	expectCorrupt(t, "sequential", sequentialErr(mutated))
	expectCorrupt(t, "info", infoErr(mutated))
}

// TestCorruptionIndexDroppedBlock rewrites the archive with the last
// block record removed but the original index intact: the sequential
// reader must notice the index totals disagree with the stream, and Info
// that the footer no longer points at the index record.
func TestCorruptionIndexDroppedBlock(t *testing.T) {
	ps := synthPackets(9, 2000, 500, 5)
	data := writeArchive(t, ps, WriterOptions{BlockSize: 512})
	// Find the start of the last block by walking the records.
	off := len(fileMagic)
	lastBlock := -1
	for data[off] == tagBlock {
		lastBlock = off
		h, err := parseBlockHeader(data[off+1 : off+1+blockHeaderLen])
		if err != nil {
			t.Fatal(err)
		}
		off += 1 + blockHeaderLen + h.compLen
	}
	if lastBlock < 0 {
		t.Fatal("no blocks found")
	}
	mutated := append(append([]byte(nil), data[:lastBlock]...), data[off:]...)
	expectCorrupt(t, "sequential", sequentialErr(mutated))
	expectCorrupt(t, "info", infoErr(mutated))
}

// TestCorruptionHugeBlockCount pins that a tiny index payload claiming
// an enormous block count is rejected before it can size an allocation
// (a crafted 2^29-entry index would otherwise attempt a ~16 GiB make).
func TestCorruptionHugeBlockCount(t *testing.T) {
	var payload []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range []uint64{1 << 29, 0, 0} { // nBlocks, total, valid
		payload = append(payload, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	_, err := parseIndexPayload(payload, -1)
	expectCorrupt(t, "huge block count", err)
}

func TestNewReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("definitely not a PTRC file")); err == nil {
		t.Error("NewReader accepted garbage")
	}
	expectCorrupt(t, "info/tiny file", infoErr([]byte("tiny")))
}

// legacyDeflateArchive is an archive of the removed DEFLATE block codec,
// written by the last writer that had it: fuzzArchive(2000, 256) at the
// default DEFLATE level — eight tag-0x01 blocks and an index without a
// codec section.
func legacyDeflateArchive(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-deflate.ptrc"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// expectDeflateRemoved asserts err is the corruption error that names
// the removed DEFLATE codec and asks for a re-recording.
func expectDeflateRemoved(t *testing.T, name string, err error) {
	t.Helper()
	expectCorrupt(t, name, err)
	if err == nil || !strings.Contains(err.Error(), "DEFLATE") || !strings.Contains(err.Error(), "re-record") {
		t.Errorf("%s: error does not name the removed DEFLATE codec: %v", name, err)
	}
}

// TestLegacyDeflateRejected pins that an archive of the removed DEFLATE
// codec fails loudly on every read path — the sequential reader, the
// fused DecodeInto path and Info — rather than reading as some other
// corruption or, worse, as packets.
func TestLegacyDeflateRejected(t *testing.T) {
	data := legacyDeflateArchive(t)
	if data[len(fileMagic)] != tagDeflateBlock {
		t.Fatalf("fixture's first record tag is 0x%02x, want the DEFLATE tag", data[len(fileMagic)])
	}
	expectDeflateRemoved(t, "sequential", sequentialErr(data))

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	w := stream.NewPairWindow(1 << 12)
	if v, iv, _, ok := r.DecodeInto(w); ok || v+iv != 0 {
		t.Fatalf("DecodeInto delivered %d packets (ok=%v) from a DEFLATE block", v+iv, ok)
	}
	expectDeflateRemoved(t, "fused", r.Err())

	expectDeflateRemoved(t, "info", infoErr(data))
}

// TestIndexCodecSection pins the index's codec section: a one-run
// packed section parses, while a missing section (an all-DEFLATE
// archive), a DEFLATE run (a mixed archive) and an unknown codec id
// are rejected.
func TestIndexCodecSection(t *testing.T) {
	blocks := []blockInfo{{packets: 10, valid: 9, rawLen: 30, compLen: 12}, {packets: 5, valid: 5, rawLen: 15, compLen: 8}}
	entries := encodeIndexPayload(blocks, 15, 14)
	if _, err := parseIndexPayload(entries, -1); err != nil {
		t.Fatalf("packed index rejected: %v", err)
	}
	body := entries[:len(entries)-2] // entries without the (2, packed) section
	with := func(section ...byte) []byte { return append(append([]byte(nil), body...), section...) }
	_, err := parseIndexPayload(body, -1)
	expectDeflateRemoved(t, "no codec section", err)
	_, err = parseIndexPayload(with(1, codecPacked, 1, codecDeflate), -1)
	expectDeflateRemoved(t, "mixed codecs", err)
	_, err = parseIndexPayload(with(2, 7), -1)
	expectCorrupt(t, "unknown codec", err)
	_, err = parseIndexPayload(with(3, codecPacked), -1)
	expectCorrupt(t, "codec run past the last block", err)
}
