// Package tracestore implements PTRC, a block-compressed binary packet
// trace archive for the Section II measurement pipeline. The paper's
// methodology runs over *archived* trunk captures (MAWI/WIDE Tokyo,
// CAIDA Chicago) with windows up to NV = 3×10⁸ packets; PTRC is the
// on-disk form that makes replaying such traces I/O- rather than
// parse-bound.
//
// # File layout
//
//	fileMagic (8 bytes)
//	block record ×N:  tag 0x01/0x03 | header (count, rawLen, compLen, CRC) | payload
//	index record:     tag 0x02 | length | CRC | uvarint-encoded block table
//	footer (24 bytes): index offset | index length | index CRC | footerMagic
//
// Each block holds up to BlockSize packets under one of two codecs,
// selected per block by the record tag: tag 0x01 is a validity bitmap
// followed by interleaved (src, dst) uvarint pairs (see encodeBlockRaw
// for why pairs beat delta encoding on shuffled heavy-tailed traffic),
// DEFLATE-compressed as one unit; tag 0x03 is the PTRC2 packed-column
// codec (see packed.go), bit-packed FOR/PFOR miniblocks decodable
// without an entropy coder. Archives may mix codecs. The per-block CRC
// (Castagnoli) is over the stored payload, so corruption is detected
// before any decode work. The trailing index lists every block's packet
// count, byte length and (for archives with any non-DEFLATE block)
// codec, which lets readers derive block offsets, seek, slice, and fan
// blocks out to a decode worker pool; the footer makes the index
// discoverable from the end of a seekable file, while the in-stream
// index record keeps purely sequential readers (pipes) self-contained.
//
// The format deliberately carries no payloads or timestamps — the
// paper's analysis uses only the (source, destination, valid) sequence.
package tracestore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"hybridplaw/internal/stream"
)

const (
	fileMagic   = "PTRCBLK1"
	footerMagic = "PTRCEND1"

	tagBlock       = 0x01
	tagIndex       = 0x02
	tagBlockPacked = 0x03

	// blockHeaderLen is the fixed part after a block tag: packet count,
	// raw length, compressed length, CRC — four uint32, little-endian.
	blockHeaderLen = 16
	// indexHeaderLen is the fixed part after the index tag: length and
	// CRC of the index payload.
	indexHeaderLen = 8
	// footerLen is the fixed trailer: uint64 index-record offset, uint32
	// index payload length, uint32 index payload CRC, footerMagic.
	footerLen = 8 + 4 + 4 + 8

	// DefaultBlockSize is the default number of packets per block: large
	// enough to amortize DEFLATE framing, small enough that a worker
	// pool's in-flight blocks stay a few megabytes.
	DefaultBlockSize = 1 << 16

	// maxBlockPackets and maxBlockBytes bound what a reader will accept
	// from an untrusted header, so a corrupt length field cannot force a
	// pathological allocation.
	maxBlockPackets = 1 << 26
	maxBlockBytes   = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Codec identifies the per-block compression scheme. The codec is
// carried by the block's tag byte (tagBlock = DEFLATE, tagBlockPacked =
// packed columns) and echoed in the trailing index, so archives may mix
// codecs block by block and pre-codec `PTRCBLK1` archives keep reading
// bit-for-bit.
type Codec uint8

const (
	// CodecDeflate is the original DEFLATE block codec; the zero value,
	// so pre-codec writer configurations keep producing byte-identical
	// archives.
	CodecDeflate Codec = 0
	// CodecPacked is the PTRC2 packed-column codec (see packed.go):
	// per-column FOR/PFOR bit-packed miniblocks decodable without an
	// entropy coder.
	CodecPacked Codec = 1

	numCodecs = 2
)

// String names the codec as accepted by ParseCodec.
func (c Codec) String() string {
	switch c {
	case CodecDeflate:
		return "deflate"
	case CodecPacked:
		return "packed"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ParseCodec parses a codec name as used by CLI flags ("deflate",
// "packed").
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "deflate":
		return CodecDeflate, nil
	case "packed":
		return CodecPacked, nil
	default:
		return 0, fmt.Errorf("tracestore: unknown codec %q (want deflate or packed)", s)
	}
}

// tagForCodec maps a codec to its block record tag byte.
func tagForCodec(c Codec) byte {
	if c == CodecPacked {
		return tagBlockPacked
	}
	return tagBlock
}

// codecForTag maps a block record tag byte back to its codec; ok is
// false for non-block tags.
func codecForTag(tag byte) (Codec, bool) {
	switch tag {
	case tagBlock:
		return CodecDeflate, true
	case tagBlockPacked:
		return CodecPacked, true
	default:
		return 0, false
	}
}

// MagicLen is the length of the PTRC file magic; IsArchive needs at
// least this many bytes of prefix.
const MagicLen = len(fileMagic)

// IsArchive reports whether the byte prefix begins a PTRC archive.
// Format sniffers (palu-trace convert) use it instead of hardcoding the
// magic.
func IsArchive(prefix []byte) bool {
	return len(prefix) >= MagicLen && string(prefix[:MagicLen]) == fileMagic
}

// ErrCorrupt is wrapped by every error caused by a damaged archive
// (truncation, checksum mismatch, inconsistent index, bad magic), so
// callers can distinguish corruption from I/O failure with errors.Is.
var ErrCorrupt = errors.New("tracestore: corrupt archive")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// blockInfo is one block's entry in the trailing index.
type blockInfo struct {
	packets int   // packets encoded in the block
	valid   int64 // valid packets among them
	rawLen  int   // uncompressed payload bytes
	compLen int   // compressed payload bytes as stored
	codec   Codec // block codec (from the tag byte / index codec section)
}

// encodeBlockRaw appends the uncompressed encoding of packets to dst:
// validity bitmap (LSB-first), then interleaved (src, dst) uvarint
// pairs. Interleaved direct varints deliberately beat the textbook
// delta encoding here: observatory traffic is shuffled, so consecutive
// packets share no locality for deltas to shrink, while heavy-tailed ID
// popularity means hub IDs are small (early PALU core nodes) and
// popular (src, dst) pairs recur verbatim — byte patterns DEFLATE's
// LZ77/Huffman stages exploit directly. Measured on a 200k-packet
// 50k-node synthetic site trace: zigzag deltas 4.60 B/packet after
// DEFLATE vs 3.26 B/packet for interleaved pairs.
func encodeBlockRaw(dst []byte, packets []stream.Packet) []byte {
	n := len(packets)
	base := len(dst)
	nb := (n + 7) / 8
	for i := 0; i < nb; i++ {
		dst = append(dst, 0)
	}
	for i, p := range packets {
		if p.Valid {
			dst[base+i/8] |= 1 << uint(i%8)
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	for _, p := range packets {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(p.Src))]...)
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(p.Dst))]...)
	}
	return dst
}

// decodeBlockRaw decodes an uncompressed block payload of n packets into
// out (appended), verifying that the payload is consumed exactly.
func decodeBlockRaw(raw []byte, n int, out []stream.Packet) ([]stream.Packet, error) {
	nb := (n + 7) / 8
	if len(raw) < nb {
		return out, corruptf("block payload shorter than validity bitmap")
	}
	bitmap, rest := raw[:nb], raw[nb:]
	base := len(out)
	for i := 0; i < n; i++ {
		out = append(out, stream.Packet{Valid: bitmap[i/8]&(1<<uint(i%8)) != 0})
	}
	for i := 0; i < n; i++ {
		src, k := binary.Uvarint(rest)
		if k <= 0 {
			return out, corruptf("truncated src varint at packet %d", i)
		}
		rest = rest[k:]
		dst, j := binary.Uvarint(rest)
		if j <= 0 {
			return out, corruptf("truncated dst varint at packet %d", i)
		}
		rest = rest[j:]
		if src > uint64(^uint32(0)) || dst > uint64(^uint32(0)) {
			return out, corruptf("packet %d ID out of uint32 range", i)
		}
		out[base+i].Src = uint32(src)
		out[base+i].Dst = uint32(dst)
	}
	if len(rest) != 0 {
		return out, corruptf("%d trailing bytes after packet pairs", len(rest))
	}
	return out, nil
}

// uvarintFast decodes a uvarint at raw[pos:], with inline fast paths for
// the 1- and 2-byte encodings that dominate PTRC payloads (heavy-tailed
// id popularity keeps hub ids small), falling back to binary.Uvarint for
// longer or malformed encodings. It returns the value and the position
// just past the varint; next <= pos signals a truncated or overlong
// varint. FuzzDecodeUvarint pins it byte-for-byte equivalent to
// binary.Uvarint.
func uvarintFast(raw []byte, pos int) (v uint64, next int) {
	if pos < len(raw) {
		b0 := raw[pos]
		if b0 < 0x80 {
			return uint64(b0), pos + 1
		}
		if pos+1 < len(raw) {
			if b1 := raw[pos+1]; b1 < 0x80 {
				return uint64(b0&0x7f) | uint64(b1)<<7, pos + 2
			}
		}
	}
	v, k := binary.Uvarint(raw[pos:])
	if k <= 0 {
		return 0, pos
	}
	return v, pos + k
}

// decodeBatch is the stack batch size of the fused decoder: pairs are
// deposited into the window in runs of this size so the flat tables (or
// the window's key buffer) work on whole batches.
const decodeBatch = 256

// encWalker is the resumable state of a fused block decode: one pass
// over a decompressed block payload, emitting packed (src, dst) link
// keys directly into a stream.PairWindow. A walker stops mid-block when
// the window fills and resumes on the next call — the block is never
// materialized as []stream.Packet.
type encWalker struct {
	raw []byte // decompressed block payload (bitmap + uvarint pairs)
	n   int    // packets in the block
	i   int    // next packet index
	pos int    // byte position in raw (starts past the bitmap)
}

// init points the walker at a fresh block payload, validating the
// bitmap prefix.
func (e *encWalker) init(raw []byte, n int) error {
	nb := (n + 7) / 8
	if len(raw) < nb {
		return corruptf("block payload shorter than validity bitmap")
	}
	e.raw, e.n, e.i, e.pos = raw, n, 0, nb
	return nil
}

// exhausted reports whether the walker has no packets left.
func (e *encWalker) exhausted() bool { return e.i >= e.n }

// decodeInto decodes packets until the window fills or the block runs
// out, depositing valid packets as packed link keys and counting invalid
// ones. This is the innermost loop of the fused hot path: one uvarint
// walk, one bitmap test, one batch deposit per packet — no intermediate
// packet structs.
func (e *encWalker) decodeInto(w *stream.PairWindow) (valid, invalid int64, err error) {
	var batch [decodeBatch]uint64
	k := 0
	rem := w.Remaining()
	bitmap := e.raw[:(e.n+7)/8]
	for e.i < e.n && rem > 0 {
		src, next := uvarintFast(e.raw, e.pos)
		if next <= e.pos {
			err = corruptf("truncated src varint at packet %d", e.i)
			break
		}
		dst, next2 := uvarintFast(e.raw, next)
		if next2 <= next {
			err = corruptf("truncated dst varint at packet %d", e.i)
			break
		}
		if src > uint64(^uint32(0)) || dst > uint64(^uint32(0)) {
			err = corruptf("packet %d ID out of uint32 range", e.i)
			break
		}
		ok := bitmap[e.i/8]&(1<<uint(e.i%8)) != 0
		e.pos = next2
		e.i++
		if !ok {
			invalid++
			continue
		}
		batch[k] = src<<32 | dst
		k++
		valid++
		rem--
		if k == len(batch) {
			w.AddPairs(batch[:k])
			k = 0
		}
	}
	if k > 0 {
		w.AddPairs(batch[:k])
	}
	if err == nil && e.i == e.n && e.pos != len(e.raw) {
		err = corruptf("%d trailing bytes after packet pairs", len(e.raw)-e.pos)
	}
	return valid, invalid, err
}

// blockHeader is the decoded fixed header following a block tag.
type blockHeader struct {
	packets int
	rawLen  int
	compLen int
	crc     uint32
}

func putBlockHeader(dst []byte, h blockHeader) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(h.packets))
	binary.LittleEndian.PutUint32(dst[4:], uint32(h.rawLen))
	binary.LittleEndian.PutUint32(dst[8:], uint32(h.compLen))
	binary.LittleEndian.PutUint32(dst[12:], h.crc)
}

func parseBlockHeader(b []byte, codec Codec) (blockHeader, error) {
	h := blockHeader{
		packets: int(binary.LittleEndian.Uint32(b[0:])),
		rawLen:  int(binary.LittleEndian.Uint32(b[4:])),
		compLen: int(binary.LittleEndian.Uint32(b[8:])),
		crc:     binary.LittleEndian.Uint32(b[12:]),
	}
	switch {
	case h.packets <= 0 || h.packets > maxBlockPackets:
		return h, corruptf("block header: packet count %d out of range", h.packets)
	case h.rawLen <= 0 || h.rawLen > maxBlockBytes:
		return h, corruptf("block header: raw length %d out of range", h.rawLen)
	case h.compLen <= 0 || h.compLen > maxBlockBytes:
		return h, corruptf("block header: compressed length %d out of range", h.compLen)
	// Plausibility bounds that cap what a corrupt header can make a
	// reader allocate, proportional to bytes actually present in the
	// stream. The cap is per codec: DEFLATE cannot expand beyond ~1032x
	// (one bit per symbol floor), and a packed-column payload cannot
	// represent 256 packets in fewer than ~6 bytes (maxPackedRatio).
	// Either way, n packets need at least a validity bitmap plus two
	// one-byte varints of canonical raw encoding.
	case h.rawLen > h.compLen*maxStoredRatio(codec)+64:
		return h, corruptf("block header: raw length %d implausible for %d %s bytes",
			h.rawLen, h.compLen, codec)
	case h.rawLen < minRawLen(h.packets):
		return h, corruptf("block header: raw length %d below minimum %d for %d packets",
			h.rawLen, minRawLen(h.packets), h.packets)
	}
	return h, nil
}

// maxDeflateRatio is the maximum expansion factor of DEFLATE (the
// stored-symbol floor is just under one bit per output byte).
const maxDeflateRatio = 1032

// maxStoredRatio bounds rawLen/compLen for a block of the given codec,
// used by the header plausibility check. PR 5's original check hardcoded
// the DEFLATE ratio; each codec now declares its own worst case so a
// corrupt packed header cannot smuggle an oversized allocation through
// the looser bound of another codec.
func maxStoredRatio(codec Codec) int {
	if codec == CodecPacked {
		return maxPackedRatio
	}
	return maxDeflateRatio
}

// minRawLen is the smallest possible raw encoding of n packets: the
// validity bitmap plus two one-byte varints per packet.
func minRawLen(n int) int { return (n+7)/8 + 2*n }

// blockDecoder holds the reusable state for decompressing and decoding
// blocks: one per sequential reader, one per parallel worker. An
// attached Metrics bundle (nil = stripped) makes decompress the single
// read-side instrumentation point.
type blockDecoder struct {
	fr  io.ReadCloser
	src bytes.Reader
	raw []byte
	m   *Metrics
}

// decompress verifies the stored payload against the header CRC and
// stages it into buf (grown as needed, contents overwritten), returning
// the block's working payload: the inflated raw encoding for DEFLATE
// blocks, or a copy of the packed payload for packed blocks (whose
// bit-unpack is deferred to the consumer's decode walk). Either way the
// returned buffer is independent of comp, so callers that hand payloads
// across goroutines can pass pooled buffers and recycle comp
// immediately; the decoder itself stays single-goroutine.
func (d *blockDecoder) decompress(codec Codec, h blockHeader, comp, buf []byte) ([]byte, error) {
	if len(comp) != h.compLen {
		return nil, corruptf("block payload truncated: %d of %d bytes", len(comp), h.compLen)
	}
	sp := d.m.decodeStart(codec)
	if crc := crc32.Checksum(comp, crcTable); crc != h.crc {
		d.m.crcFailure()
		return nil, corruptf("block CRC mismatch: stored %08x, computed %08x", h.crc, crc)
	}
	if codec == CodecPacked {
		reused := cap(buf) >= h.compLen
		if !reused {
			buf = make([]byte, h.compLen)
		}
		buf = buf[:h.compLen]
		copy(buf, comp)
		sp.Stop()
		d.m.blockRead(codec, h.compLen, h.rawLen, reused)
		return buf, nil
	}
	d.src.Reset(comp)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.src)
	} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return nil, err
	}
	reused := cap(buf) >= h.rawLen
	if !reused {
		buf = make([]byte, h.rawLen)
	}
	buf = buf[:h.rawLen]
	if _, err := io.ReadFull(d.fr, buf); err != nil {
		return nil, corruptf("block decompression: %v", err)
	}
	var extra [1]byte
	if n, _ := d.fr.Read(extra[:]); n != 0 {
		return nil, corruptf("block decompresses past its declared raw length %d", h.rawLen)
	}
	sp.Stop()
	d.m.blockRead(codec, h.compLen, h.rawLen, reused)
	return buf, nil
}

// decode verifies the stored payload against the header CRC, stages it,
// and decodes the packets into out (appended).
func (d *blockDecoder) decode(codec Codec, h blockHeader, comp []byte, out []stream.Packet) ([]stream.Packet, error) {
	raw, err := d.decompress(codec, h, comp, d.raw)
	if err != nil {
		return out, err
	}
	d.raw = raw
	if codec == CodecPacked {
		return decodeBlockPacked(raw, h.packets, out)
	}
	return decodeBlockRaw(raw, h.packets, out)
}

// blockWalker is the codec dispatch over the fused block walkers: one
// per reader, resumed across window boundaries. The zero value is
// exhausted, so the first DecodeInto call always fetches a block.
type blockWalker struct {
	codec  Codec
	enc    encWalker
	packed packedWalker
}

// init points the walker at a fresh staged payload of the given codec.
func (w *blockWalker) init(codec Codec, raw []byte, n int) error {
	w.codec = codec
	if codec == CodecPacked {
		return w.packed.init(raw, n)
	}
	return w.enc.init(raw, n)
}

// exhausted reports whether the walker has no packets left.
func (w *blockWalker) exhausted() bool {
	if w.codec == CodecPacked {
		return w.packed.exhausted()
	}
	return w.enc.exhausted()
}

// decodeInto resumes the fused decode of the current block into pw.
func (w *blockWalker) decodeInto(pw *stream.PairWindow) (valid, invalid int64, err error) {
	if w.codec == CodecPacked {
		return w.packed.decodeInto(pw)
	}
	return w.enc.decodeInto(pw)
}

// archiveIndex is the decoded trailing index: per-block metadata plus the
// derived file offset of each block's tag byte.
type archiveIndex struct {
	blocks  []blockInfo
	offsets []int64
	total   int64 // packets in the archive
	valid   int64 // valid packets in the archive
}

// encodeIndexPayload serializes the block table as uvarints. When every
// block uses the original DEFLATE codec, the payload is byte-identical
// to the pre-codec format; otherwise a run-length codec section —
// (run length, codec id) uvarint pairs covering all blocks in order —
// is appended after the entries. Pre-codec readers never see the
// section (they would reject it as trailing bytes, which is the correct
// failure for an archive whose codecs they cannot decode), and the new
// parser treats its absence as all-DEFLATE.
func encodeIndexPayload(blocks []blockInfo, total, valid int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	put := func(dst []byte, v uint64) []byte {
		return append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	b := put(nil, uint64(len(blocks)))
	b = put(b, uint64(total))
	b = put(b, uint64(valid))
	allDeflate := true
	for _, bl := range blocks {
		b = put(b, uint64(bl.packets))
		b = put(b, uint64(bl.valid))
		b = put(b, uint64(bl.rawLen))
		b = put(b, uint64(bl.compLen))
		if bl.codec != CodecDeflate {
			allDeflate = false
		}
	}
	if allDeflate {
		return b
	}
	for i := 0; i < len(blocks); {
		j := i + 1
		for j < len(blocks) && blocks[j].codec == blocks[i].codec {
			j++
		}
		b = put(b, uint64(j-i))
		b = put(b, uint64(blocks[i].codec))
		i = j
	}
	return b
}

// parseIndexPayload decodes the block table and derives block offsets,
// verifying internal consistency (blocks must tile the file exactly from
// the end of the magic to the start of the index record; indexOffset < 0
// skips that check for sequential readers that never learn offsets).
func parseIndexPayload(payload []byte, indexOffset int64) (*archiveIndex, error) {
	next := func() (uint64, error) {
		v, k := binary.Uvarint(payload)
		if k <= 0 {
			return 0, corruptf("truncated index payload")
		}
		payload = payload[k:]
		return v, nil
	}
	nBlocks, err := next()
	if err != nil {
		return nil, err
	}
	// Each block entry is at least 4 bytes (four uvarints), so a block
	// count beyond len(payload)/4 is corrupt — checked before the count
	// sizes any allocation.
	if nBlocks > uint64(len(payload))/4 {
		return nil, corruptf("index: block count %d exceeds payload capacity", nBlocks)
	}
	total, err := next()
	if err != nil {
		return nil, err
	}
	valid, err := next()
	if err != nil {
		return nil, err
	}
	idx := &archiveIndex{
		blocks:  make([]blockInfo, nBlocks),
		offsets: make([]int64, nBlocks),
		total:   int64(total),
		valid:   int64(valid),
	}
	offset := int64(len(fileMagic))
	var sumPackets, sumValid int64
	for i := range idx.blocks {
		fields := [4]uint64{}
		for j := range fields {
			if fields[j], err = next(); err != nil {
				return nil, err
			}
		}
		bl := blockInfo{
			packets: int(fields[0]),
			valid:   int64(fields[1]),
			rawLen:  int(fields[2]),
			compLen: int(fields[3]),
		}
		if bl.packets <= 0 || bl.packets > maxBlockPackets ||
			bl.valid < 0 || bl.valid > int64(bl.packets) ||
			bl.rawLen <= 0 || bl.rawLen > maxBlockBytes ||
			bl.compLen <= 0 || bl.compLen > maxBlockBytes {
			return nil, corruptf("index: block %d entry out of range", i)
		}
		idx.blocks[i] = bl
		idx.offsets[i] = offset
		offset += 1 + blockHeaderLen + int64(bl.compLen)
		sumPackets += int64(bl.packets)
		sumValid += bl.valid
	}
	// Codec section: absent for all-DEFLATE archives (the pre-codec
	// payload, parsed unchanged); otherwise (run, codec) pairs that must
	// tile the block list exactly.
	if len(payload) != 0 {
		covered := uint64(0)
		for covered < nBlocks {
			run, err := next()
			if err != nil {
				return nil, err
			}
			codec, err := next()
			if err != nil {
				return nil, err
			}
			if run == 0 || run > nBlocks-covered {
				return nil, corruptf("index: codec run of %d blocks out of range", run)
			}
			if codec >= numCodecs {
				return nil, corruptf("index: unknown codec %d", codec)
			}
			for i := covered; i < covered+run; i++ {
				idx.blocks[i].codec = Codec(codec)
			}
			covered += run
		}
	}
	if len(payload) != 0 {
		return nil, corruptf("index: %d trailing bytes", len(payload))
	}
	if sumPackets != idx.total || sumValid != idx.valid {
		return nil, corruptf("index totals disagree with block entries")
	}
	if indexOffset >= 0 && offset != indexOffset {
		return nil, corruptf("index: blocks end at offset %d, index record at %d", offset, indexOffset)
	}
	return idx, nil
}

// readIndex locates and decodes the trailing index of a seekable archive
// via its footer. size is the total archive length in bytes.
func readIndex(r io.ReaderAt, size int64) (*archiveIndex, error) {
	if size < int64(len(fileMagic))+footerLen {
		return nil, corruptf("archive of %d bytes is shorter than magic plus footer", size)
	}
	var magic [len(fileMagic)]byte
	if _, err := r.ReadAt(magic[:], 0); err != nil {
		return nil, err
	}
	if string(magic[:]) != fileMagic {
		return nil, corruptf("bad file magic %q", magic[:])
	}
	var footer [footerLen]byte
	if _, err := r.ReadAt(footer[:], size-footerLen); err != nil {
		return nil, err
	}
	if string(footer[16:]) != footerMagic {
		return nil, corruptf("bad footer magic %q (file truncated or not finalized?)", footer[16:])
	}
	indexOffset := int64(binary.LittleEndian.Uint64(footer[0:]))
	indexLen := int64(binary.LittleEndian.Uint32(footer[8:]))
	indexCRC := binary.LittleEndian.Uint32(footer[12:])
	recLen := int64(1+indexHeaderLen) + indexLen
	if indexOffset < int64(len(fileMagic)) || indexOffset+recLen != size-footerLen {
		return nil, corruptf("footer: index record [%d, +%d) does not abut the footer", indexOffset, recLen)
	}
	rec := make([]byte, recLen)
	if _, err := r.ReadAt(rec, indexOffset); err != nil {
		return nil, err
	}
	if rec[0] != tagIndex {
		return nil, corruptf("expected index tag at offset %d, found 0x%02x", indexOffset, rec[0])
	}
	if got := int64(binary.LittleEndian.Uint32(rec[1:])); got != indexLen {
		return nil, corruptf("index length %d disagrees with footer %d", got, indexLen)
	}
	if got := binary.LittleEndian.Uint32(rec[5:]); got != indexCRC {
		return nil, corruptf("index CRC in record disagrees with footer")
	}
	payload := rec[1+indexHeaderLen:]
	if crc := crc32.Checksum(payload, crcTable); crc != indexCRC {
		return nil, corruptf("index CRC mismatch: stored %08x, computed %08x", indexCRC, crc)
	}
	return parseIndexPayload(payload, indexOffset)
}

// ArchiveInfo summarizes a PTRC archive from its index without decoding
// any block.
type ArchiveInfo struct {
	// FileSize is the archive length in bytes.
	FileSize int64
	// Blocks is the number of packet blocks.
	Blocks int
	// Packets and ValidPackets count the archived packets.
	Packets, ValidPackets int64
	// RawBytes and CompressedBytes total the block payloads before and
	// after compression (headers, index and footer excluded).
	RawBytes, CompressedBytes int64
	// DeflateBlocks and PackedBlocks split Blocks by codec.
	DeflateBlocks, PackedBlocks int
}

// CodecMix names the archive's codec composition: a single codec name
// when uniform, or "mixed(deflate:N,packed:M)" for mixed archives.
func (a ArchiveInfo) CodecMix() string {
	switch {
	case a.PackedBlocks == 0:
		return CodecDeflate.String()
	case a.DeflateBlocks == 0:
		return CodecPacked.String()
	default:
		return fmt.Sprintf("mixed(%s:%d,%s:%d)",
			CodecDeflate, a.DeflateBlocks, CodecPacked, a.PackedBlocks)
	}
}

// Info reads the footer and index of a seekable archive and returns its
// summary. It fails with an error wrapping ErrCorrupt if the archive is
// truncated or damaged in a way the index can detect.
func Info(r io.ReaderAt, size int64) (ArchiveInfo, error) {
	idx, err := readIndex(r, size)
	if err != nil {
		return ArchiveInfo{}, err
	}
	info := ArchiveInfo{
		FileSize:     size,
		Blocks:       len(idx.blocks),
		Packets:      idx.total,
		ValidPackets: idx.valid,
	}
	for _, bl := range idx.blocks {
		info.RawBytes += int64(bl.rawLen)
		info.CompressedBytes += int64(bl.compLen)
		if bl.codec == CodecPacked {
			info.PackedBlocks++
		} else {
			info.DeflateBlocks++
		}
	}
	return info, nil
}

// InfoFile summarizes the archive at path (open + stat + Info): the one
// helper behind every "inspect an archive on disk" path.
func InfoFile(path string) (ArchiveInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ArchiveInfo{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return ArchiveInfo{}, err
	}
	return Info(f, fi.Size())
}

// BlockStat is one block's index entry as exposed to inspection tools
// (palu-trace info -verbose): per-block packet counts and payload sizes,
// read from the trailing index without decoding the block.
type BlockStat struct {
	// Packets and Valid count the block's packets and its valid subset.
	Packets int
	Valid   int64
	// RawBytes and CompressedBytes size the payload before and after
	// compression (RawBytes is the canonical raw encoding for every
	// codec, so ratios are comparable across codecs).
	RawBytes        int
	CompressedBytes int
	// Codec is the block's compression scheme.
	Codec Codec
}

// InfoFileBlocks summarizes the archive at path like InfoFile and
// additionally returns the per-block table from the trailing index.
func InfoFileBlocks(path string) (ArchiveInfo, []BlockStat, error) {
	f, err := os.Open(path)
	if err != nil {
		return ArchiveInfo{}, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return ArchiveInfo{}, nil, err
	}
	idx, err := readIndex(f, fi.Size())
	if err != nil {
		return ArchiveInfo{}, nil, err
	}
	info := ArchiveInfo{
		FileSize:     fi.Size(),
		Blocks:       len(idx.blocks),
		Packets:      idx.total,
		ValidPackets: idx.valid,
	}
	stats := make([]BlockStat, len(idx.blocks))
	for i, bl := range idx.blocks {
		info.RawBytes += int64(bl.rawLen)
		info.CompressedBytes += int64(bl.compLen)
		if bl.codec == CodecPacked {
			info.PackedBlocks++
		} else {
			info.DeflateBlocks++
		}
		stats[i] = BlockStat{
			Packets:         bl.packets,
			Valid:           bl.valid,
			RawBytes:        bl.rawLen,
			CompressedBytes: bl.compLen,
			Codec:           bl.codec,
		}
	}
	return info, stats, nil
}
