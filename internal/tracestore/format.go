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
//	block record ×N:  tag 0x03 | header (count, rawLen, compLen, CRC) | payload
//	index record:     tag 0x02 | length | CRC | uvarint-encoded block table
//	footer (24 bytes): index offset | index length | index CRC | footerMagic
//
// Each block holds up to BlockSize packets in the packed-column codec
// (see packed.go): bit-packed FOR/PFOR miniblocks decodable without an
// entropy coder. The per-block CRC (Castagnoli) is over the stored
// payload, so corruption is detected before any decode work. The
// trailing index lists every block's packet count and byte lengths,
// then a codec section naming every block packed, so a seekable archive
// can be summarized (InfoFile) without decoding any block; the footer makes
// the index discoverable from the end of the file, while the in-stream
// index record keeps the sequential Reader (which needs only an
// io.Reader, so a pipe works) self-contained.
//
// Archives written before the packed codec became the only one may hold
// DEFLATE blocks (tag 0x01, no codec section). The DEFLATE codec was
// removed; every reader path rejects such an archive with an error
// wrapping ErrCorrupt that says to re-record the trace.
//
// The format deliberately carries no payloads or timestamps — the
// paper's analysis uses only the (source, destination, valid) sequence.
package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	fileMagic   = "PTRCBLK1"
	footerMagic = "PTRCEND1"

	// tagDeflateBlock tagged a block of the removed DEFLATE codec; it is
	// recognized only to reject it with errDeflateRemoved.
	tagDeflateBlock = 0x01
	tagIndex        = 0x02
	tagBlock        = 0x03

	// codecDeflate and codecPacked are the codec ids of the index's codec
	// section. Only packed blocks are written or read.
	codecDeflate = 0
	codecPacked  = 1

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
	// enough to amortize the per-block header and CRC, small enough that
	// a reader's block buffers stay a few megabytes.
	DefaultBlockSize = 1 << 16

	// maxBlockPackets and maxBlockBytes bound what a reader will accept
	// from an untrusted header, so a corrupt length field cannot force a
	// pathological allocation.
	maxBlockPackets = 1 << 26
	maxBlockBytes   = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

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
// An archive holding DEFLATE blocks fails with it too.
var ErrCorrupt = errors.New("tracestore: corrupt archive")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// errDeflateRemoved is the error for an archive recorded with the
// removed DEFLATE block codec.
func errDeflateRemoved() error {
	return corruptf("archive uses the DEFLATE block codec, which was removed; re-record the trace")
}

// blockInfo is one block's entry in the trailing index.
type blockInfo struct {
	packets int   // packets encoded in the block
	valid   int64 // valid packets among them
	rawLen  int   // canonical raw encoding bytes
	compLen int   // packed payload bytes as stored
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

func parseBlockHeader(b []byte) (blockHeader, error) {
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
	// stream: a packed payload cannot represent 256 packets in fewer
	// than ~6 bytes (maxPackedRatio), and n packets need at least a
	// validity bitmap plus two one-byte varints of canonical raw
	// encoding.
	case h.rawLen > h.compLen*maxPackedRatio+64:
		return h, corruptf("block header: raw length %d implausible for %d packed bytes",
			h.rawLen, h.compLen)
	case h.rawLen < minRawLen(h.packets):
		return h, corruptf("block header: raw length %d below minimum %d for %d packets",
			h.rawLen, minRawLen(h.packets), h.packets)
	}
	return h, nil
}

// minRawLen is the smallest possible raw encoding of n packets: the
// validity bitmap plus two one-byte varints per packet.
func minRawLen(n int) int { return (n+7)/8 + 2*n }

// verifyBlock checks a block's stored payload, read in full, against
// the header CRC before any decode work: the single read-side
// instrumentation point (m nil = stripped). The bit-unpack itself is
// deferred to the consumer's decode walk.
func verifyBlock(h blockHeader, comp []byte, m *Metrics) error {
	sp := m.unpackStart()
	if crc := crc32.Checksum(comp, crcTable); crc != h.crc {
		m.crcFailure()
		return corruptf("block CRC mismatch: stored %08x, computed %08x", h.crc, crc)
	}
	sp.Stop()
	m.blockRead(h.compLen, h.rawLen)
	return nil
}

// archiveIndex is the decoded trailing index: per-block metadata and
// the archive totals.
type archiveIndex struct {
	blocks []blockInfo
	total  int64 // packets in the archive
	valid  int64 // valid packets in the archive
}

// encodeIndexPayload serializes the block table as uvarints: the
// counts, one four-field entry per block, then the codec section — one
// (run length, codec id) pair naming every block packed. An archive
// without blocks carries no codec section.
func encodeIndexPayload(blocks []blockInfo, total, valid int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	put := func(dst []byte, v uint64) []byte {
		return append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	b := put(nil, uint64(len(blocks)))
	b = put(b, uint64(total))
	b = put(b, uint64(valid))
	for _, bl := range blocks {
		b = put(b, uint64(bl.packets))
		b = put(b, uint64(bl.valid))
		b = put(b, uint64(bl.rawLen))
		b = put(b, uint64(bl.compLen))
	}
	if len(blocks) > 0 {
		b = put(b, uint64(len(blocks)))
		b = put(b, codecPacked)
	}
	return b
}

// parseIndexPayload decodes the block table, verifying internal
// consistency (blocks must tile the file exactly from the end of the
// magic to the start of the index record; indexOffset < 0 skips that
// check for the sequential Reader, which never learns the offset) and
// that every block is packed.
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
		blocks: make([]blockInfo, nBlocks),
		total:  int64(total),
		valid:  int64(valid),
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
		offset += 1 + blockHeaderLen + int64(bl.compLen)
		sumPackets += int64(bl.packets)
		sumValid += bl.valid
	}
	// Codec section: (run, codec) pairs that must tile the block list
	// exactly and name only packed blocks. Its absence marks an archive
	// of DEFLATE blocks.
	if nBlocks > 0 && len(payload) == 0 {
		return nil, errDeflateRemoved()
	}
	for covered := uint64(0); covered < nBlocks; {
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
		switch codec {
		case codecPacked:
		case codecDeflate:
			return nil, errDeflateRemoved()
		default:
			return nil, corruptf("index: unknown codec %d", codec)
		}
		covered += run
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
	// RawBytes and CompressedBytes total the block payloads in their
	// canonical raw encoding and as stored (headers, index and footer
	// excluded).
	RawBytes, CompressedBytes int64
}

// BlockStat is one block's index entry as exposed to inspection tools
// (palu-trace info -verbose): per-block packet counts and payload sizes,
// read from the trailing index without decoding the block.
type BlockStat struct {
	// Packets and Valid count the block's packets and its valid subset.
	Packets int
	Valid   int64
	// RawBytes and CompressedBytes size the payload in its canonical
	// raw encoding and as stored.
	RawBytes        int
	CompressedBytes int
}

// summary is the one archive summarizer behind InfoFile and
// InfoFileBlocks.
func (idx *archiveIndex) summary(size int64) ArchiveInfo {
	info := ArchiveInfo{
		FileSize:     size,
		Blocks:       len(idx.blocks),
		Packets:      idx.total,
		ValidPackets: idx.valid,
	}
	for _, bl := range idx.blocks {
		info.RawBytes += int64(bl.rawLen)
		info.CompressedBytes += int64(bl.compLen)
	}
	return info
}

// readIndexFile opens the archive at path and reads its index,
// returning the file size with it.
func readIndexFile(path string) (*archiveIndex, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	idx, err := readIndex(f, fi.Size())
	return idx, fi.Size(), err
}

// InfoFile summarizes the archive at path: the one helper behind every
// "inspect an archive on disk" path.
func InfoFile(path string) (ArchiveInfo, error) {
	idx, size, err := readIndexFile(path)
	if err != nil {
		return ArchiveInfo{}, err
	}
	return idx.summary(size), nil
}

// InfoFileBlocks summarizes the archive at path like InfoFile and
// additionally returns the per-block table from the trailing index.
func InfoFileBlocks(path string) (ArchiveInfo, []BlockStat, error) {
	idx, size, err := readIndexFile(path)
	if err != nil {
		return ArchiveInfo{}, nil, err
	}
	stats := make([]BlockStat, len(idx.blocks))
	for i, bl := range idx.blocks {
		stats[i] = BlockStat{
			Packets:         bl.packets,
			Valid:           bl.valid,
			RawBytes:        bl.rawLen,
			CompressedBytes: bl.compLen,
		}
	}
	return idx.summary(size), stats, nil
}
