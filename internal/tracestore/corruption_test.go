package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
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
		h, err := parseBlockHeader(data[off+1:off+1+blockHeaderLen], CodecDeflate)
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
