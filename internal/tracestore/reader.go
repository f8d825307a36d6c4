package tracestore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"

	"hybridplaw/internal/stream"
)

// Reader replays a PTRC archive sequentially, implementing
// stream.PacketSource for drop-in pipeline replay. It needs only an
// io.Reader (a pipe works): blocks are decoded one at a time in order,
// and the in-stream index record both terminates the block sequence and
// cross-checks the totals, so a truncated archive — one that ends before
// its index — always surfaces as an error rather than a silently short
// trace.
type Reader struct {
	r      io.Reader
	m      *Metrics
	hdr    [1 + blockHeaderLen]byte
	comp   []byte
	walk   packedWalker
	block  []stream.Packet // NextBlock's reused result
	off    int64           // bytes consumed from r
	read   int64
	valid  int64
	blocks int64
	err    error
	done   bool
}

// NewReader checks the file magic and returns a sequential reader over
// the archive.
func NewReader(r io.Reader) (*Reader, error) {
	var magic [len(fileMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, corruptf("reading file magic: %v", err)
	}
	if string(magic[:]) != fileMagic {
		return nil, corruptf("bad file magic %q", magic[:])
	}
	return &Reader{r: r, off: int64(len(fileMagic))}, nil
}

// SetMetrics attaches an instrument bundle (nil = stripped) to the
// reader's block checks. Call it before the first read; the sequential
// reader decodes on the caller's goroutine, so attaching mid-stream is
// safe but splits the accounting.
func (r *Reader) SetMetrics(m *Metrics) { r.m = m }

// readFull wraps io.ReadFull with offset accounting.
func (r *Reader) readFull(b []byte) error {
	n, err := io.ReadFull(r.r, b)
	r.off += int64(n)
	return err
}

// Next implements stream.PacketSource.
func (r *Reader) Next() (stream.Packet, bool) {
	if !r.stage() {
		return stream.Packet{}, false
	}
	p, err := r.walk.next()
	if err != nil {
		r.err = err
		return stream.Packet{}, false
	}
	r.read++
	if p.Valid {
		r.valid++
	}
	return p, true
}

// NextBlock returns the unconsumed remainder of the current block, read
// through Next. The slice is only valid until the next NextBlock call.
func (r *Reader) NextBlock() ([]stream.Packet, bool) {
	if !r.stage() {
		return nil, false
	}
	r.block = r.block[:0]
	for !r.walk.exhausted() {
		p, ok := r.Next()
		if !ok {
			break
		}
		r.block = append(r.block, p)
	}
	return r.block, len(r.block) > 0
}

// readRecord reads the next record's tag, header and stored payload
// (into r.comp) and verifies the payload's length and CRC. ok = false
// at end of stream — the index record was consumed and verified by
// finish — or on error (r.err set).
func (r *Reader) readRecord() (blockHeader, bool) {
	tagOff := r.off
	if err := r.readFull(r.hdr[:1]); err != nil {
		if err == io.EOF {
			r.err = corruptf("archive ends after %d blocks with no index (truncated?)", r.blocks)
		} else {
			r.err = err
		}
		return blockHeader{}, false
	}
	switch r.hdr[0] {
	case tagBlock:
	case tagIndex:
		r.finish(tagOff)
		return blockHeader{}, false
	case tagDeflateBlock:
		r.err = errDeflateRemoved()
		return blockHeader{}, false
	default:
		r.err = corruptf("unknown record tag 0x%02x after %d blocks", r.hdr[0], r.blocks)
		return blockHeader{}, false
	}
	if err := r.readFull(r.hdr[1:]); err != nil {
		r.err = corruptf("truncated block header: %v", err)
		return blockHeader{}, false
	}
	h, err := parseBlockHeader(r.hdr[1:])
	if err != nil {
		r.err = err
		return blockHeader{}, false
	}
	if cap(r.comp) < h.compLen {
		r.comp = make([]byte, h.compLen)
	}
	r.comp = r.comp[:h.compLen]
	if err := r.readFull(r.comp); err != nil {
		r.err = corruptf("truncated block payload: %v", err)
		return blockHeader{}, false
	}
	r.blocks++
	if err := verifyBlock(h, r.comp, r.m); err != nil {
		r.err = err
		return blockHeader{}, false
	}
	return h, true
}

// stage makes sure the walker has packets left, reading records as
// needed: a block is handed to the walker, and the index record ends the
// stream after finish verifies the totals and footer. false means end of
// stream or error.
func (r *Reader) stage() bool {
	for r.err == nil && !r.done && r.walk.exhausted() {
		if h, ok := r.readRecord(); ok {
			r.err = r.walk.init(r.comp, h.packets)
		}
	}
	return r.err == nil && !r.walk.exhausted()
}

// DecodeInto implements stream.EncodedBlockSource: it stages the next
// block (or resumes the current one) and decodes its pairs directly
// into w — the fused one-pass replay path, no []stream.Packet
// materialization: keys are deposited straight from the bit-packed
// columns. It may be interleaved with Next and NextBlock: all three
// advance the same walk.
func (r *Reader) DecodeInto(w *stream.PairWindow) (valid, invalid int64, full, ok bool) {
	if !r.stage() {
		return 0, 0, false, false
	}
	var err error
	valid, invalid, err = r.walk.decodeInto(w)
	r.read += valid + invalid
	r.valid += valid
	if err != nil {
		r.err = err
		return valid, invalid, false, false
	}
	return valid, invalid, w.Remaining() == 0, true
}

// finish consumes the index record and footer and verifies both against
// the stream just replayed: block/packet totals, index CRC, and the
// footer's magic and back-pointer to the index record at tagOff.
func (r *Reader) finish(tagOff int64) {
	var ih [indexHeaderLen]byte
	if err := r.readFull(ih[:]); err != nil {
		r.err = corruptf("truncated index header: %v", err)
		return
	}
	n := binary.LittleEndian.Uint32(ih[0:])
	want := binary.LittleEndian.Uint32(ih[4:])
	if int64(n) > maxBlockBytes {
		r.err = corruptf("index length %d out of range", n)
		return
	}
	// Copy the payload incrementally rather than allocating the claimed
	// length up front: a corrupt length field on a sequential stream
	// (whose true size is unknowable here) must not be able to force a
	// gigabyte-scale allocation — the same plausibility discipline the
	// block headers get, applied to the index record.
	var pbuf bytes.Buffer
	m, err := io.CopyN(&pbuf, r.r, int64(n))
	r.off += m
	if err != nil {
		r.err = corruptf("truncated index payload: %v", err)
		return
	}
	payload := pbuf.Bytes()
	if crc := crc32.Checksum(payload, crcTable); crc != want {
		r.err = corruptf("index CRC mismatch: stored %08x, computed %08x", want, crc)
		return
	}
	idx, err := parseIndexPayload(payload, -1)
	if err != nil {
		r.err = err
		return
	}
	if int64(len(idx.blocks)) != r.blocks || idx.total != r.read || idx.valid != r.valid {
		r.err = corruptf("index claims %d blocks / %d packets (%d valid), stream delivered %d / %d (%d)",
			len(idx.blocks), idx.total, idx.valid, r.blocks, r.read, r.valid)
		return
	}
	var footer [footerLen]byte
	if err := r.readFull(footer[:]); err != nil {
		r.err = corruptf("truncated footer: %v", err)
		return
	}
	if string(footer[16:]) != footerMagic {
		r.err = corruptf("bad footer magic %q", footer[16:])
		return
	}
	if got := int64(binary.LittleEndian.Uint64(footer[0:])); got != tagOff {
		r.err = corruptf("footer points at index offset %d, index record read at %d", got, tagOff)
		return
	}
	if binary.LittleEndian.Uint32(footer[8:]) != n || binary.LittleEndian.Uint32(footer[12:]) != want {
		r.err = corruptf("footer index length/CRC disagree with index record")
		return
	}
	r.done = true
}

// Err implements stream.PacketSource.
func (r *Reader) Err() error { return r.err }

// PacketsRead implements stream.PacketCounter: the number of packets
// delivered so far.
func (r *Reader) PacketsRead() int64 { return r.read }
