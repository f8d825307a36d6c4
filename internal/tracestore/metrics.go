package tracestore

// PTRC observability (DESIGN.md §11). A Metrics bundle instruments the
// archive codecs at block granularity: the single choke point on the
// read side is blockDecoder.decompress (every block the Reader stages
// passes through it), and on the write side blockEncoder.encodeRecord.
// A nil *Metrics strips everything to inert branches.

import "hybridplaw/internal/obs"

// Metrics holds the PTRC instruments, all registered against one
// registry. A nil *Metrics disables instrumentation.
type Metrics struct {
	reg *obs.Registry

	// BlocksRead counts blocks CRC-checked and inflated;
	// BlocksWritten counts blocks deflated and flushed.
	BlocksRead    *obs.Counter
	BlocksWritten *obs.Counter

	// Read/Write byte totals measure the block payloads crossing the
	// codecs, before and after compression (headers excluded).
	ReadCompressedBytes  *obs.Counter
	ReadRawBytes         *obs.Counter
	WriteRawBytes        *obs.Counter
	WriteCompressedBytes *obs.Counter

	// CRCFailures counts blocks rejected by the Castagnoli check.
	CRCFailures *obs.Counter

	// RawBufReuse / RawBufAlloc split DEFLATE inflate target buffers
	// into warm reuses and fresh (or grown) allocations. Packed blocks
	// decode straight from the read buffer and count in neither.
	RawBufReuse *obs.Counter
	RawBufAlloc *obs.Counter

	// InflateTime spans one DEFLATE block decompression (CRC check
	// included); DeflateTime spans one DEFLATE block compression.
	InflateTime *obs.Timer
	DeflateTime *obs.Timer

	// PackedBlocksRead / PackedBlocksWritten count the packed-column
	// subset of BlocksRead / BlocksWritten; the DEFLATE counts are the
	// difference. PackedReadBytes / PackedWrittenBytes total the stored
	// packed payload bytes, the packed subset of the compressed totals.
	PackedBlocksRead    *obs.Counter
	PackedBlocksWritten *obs.Counter
	PackedReadBytes     *obs.Counter
	PackedWrittenBytes  *obs.Counter

	// UnpackTime spans one packed block's CRC check and staging (the
	// bit-unpack itself is fused into the consumer's decode walk);
	// PackTime spans one packed block encode.
	UnpackTime *obs.Timer
	PackTime   *obs.Timer
}

// NewMetrics registers the PTRC instrument set against reg (the process
// default registry if nil) and returns the bundle. Calling it twice
// with one registry returns bundles sharing the same instruments.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &Metrics{
		reg: reg,
		BlocksRead: reg.Counter("palu_ptrc_blocks_read_total",
			"archive blocks CRC-checked and inflated"),
		BlocksWritten: reg.Counter("palu_ptrc_blocks_written_total",
			"archive blocks deflated and flushed"),
		ReadCompressedBytes: reg.Counter("palu_ptrc_read_compressed_bytes_total",
			"compressed block payload bytes read"),
		ReadRawBytes: reg.Counter("palu_ptrc_read_raw_bytes_total",
			"raw block payload bytes produced by inflate"),
		WriteRawBytes: reg.Counter("palu_ptrc_write_raw_bytes_total",
			"raw block payload bytes fed to deflate"),
		WriteCompressedBytes: reg.Counter("palu_ptrc_write_compressed_bytes_total",
			"compressed block payload bytes written"),
		CRCFailures: reg.Counter("palu_ptrc_crc_failures_total",
			"blocks rejected by the CRC check"),
		RawBufReuse: reg.Counter("palu_ptrc_rawbuf_reuse_total",
			"DEFLATE inflate target buffers reused warm"),
		RawBufAlloc: reg.Counter("palu_ptrc_rawbuf_alloc_total",
			"DEFLATE inflate target buffers allocated or grown"),
		InflateTime: reg.Timer("palu_ptrc_inflate_ns",
			"DEFLATE block CRC check + decompression time"),
		DeflateTime: reg.Timer("palu_ptrc_deflate_ns",
			"DEFLATE block compression time"),
		PackedBlocksRead: reg.Counter("palu_ptrc_packed_blocks_read_total",
			"packed-column blocks CRC-checked and staged"),
		PackedBlocksWritten: reg.Counter("palu_ptrc_packed_blocks_written_total",
			"packed-column blocks encoded and flushed"),
		PackedReadBytes: reg.Counter("palu_ptrc_packed_read_bytes_total",
			"stored packed-column payload bytes read"),
		PackedWrittenBytes: reg.Counter("palu_ptrc_packed_written_bytes_total",
			"stored packed-column payload bytes written"),
		UnpackTime: reg.Timer("palu_ptrc_unpack_ns",
			"packed block CRC check + staging time"),
		PackTime: reg.Timer("palu_ptrc_pack_ns",
			"packed block encode time"),
	}
}

// Registry returns the registry the instruments live in (nil for a nil
// bundle).
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// The nil-safe hooks below are what the codecs call; each is an inert
// branch on a nil bundle.

func (m *Metrics) crcFailure() {
	if m != nil {
		m.CRCFailures.Inc()
	}
}

// decodeStart opens the per-codec decode span: InflateTime for DEFLATE
// blocks, UnpackTime for packed blocks.
func (m *Metrics) decodeStart(codec Codec) obs.Span {
	if m == nil {
		return obs.Span{}
	}
	if codec == CodecPacked {
		return m.UnpackTime.Start()
	}
	return m.InflateTime.Start()
}

// encodeStart opens the per-codec encode span: DeflateTime for DEFLATE
// blocks, PackTime for packed blocks.
func (m *Metrics) encodeStart(codec Codec) obs.Span {
	if m == nil {
		return obs.Span{}
	}
	if codec == CodecPacked {
		return m.PackTime.Start()
	}
	return m.DeflateTime.Start()
}

func (m *Metrics) blockRead(codec Codec, compLen, rawLen int) {
	if m == nil {
		return
	}
	m.BlocksRead.Inc()
	m.ReadCompressedBytes.Add(int64(compLen))
	m.ReadRawBytes.Add(int64(rawLen))
	if codec == CodecPacked {
		m.PackedBlocksRead.Inc()
		m.PackedReadBytes.Add(int64(compLen))
	}
}

// rawBuf counts one DEFLATE inflate target, warm or freshly allocated.
func (m *Metrics) rawBuf(reused bool) {
	if m == nil {
		return
	}
	if reused {
		m.RawBufReuse.Inc()
	} else {
		m.RawBufAlloc.Inc()
	}
}

func (m *Metrics) blockWritten(codec Codec, rawLen, compLen int) {
	if m == nil {
		return
	}
	m.BlocksWritten.Inc()
	m.WriteRawBytes.Add(int64(rawLen))
	m.WriteCompressedBytes.Add(int64(compLen))
	if codec == CodecPacked {
		m.PackedBlocksWritten.Inc()
		m.PackedWrittenBytes.Add(int64(compLen))
	}
}
