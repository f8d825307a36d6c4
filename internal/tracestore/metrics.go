package tracestore

// PTRC observability (DESIGN.md §11). A Metrics bundle instruments the
// block codec at block granularity: the single choke point on the read
// side is verifyBlock (every block the Reader stages passes through
// it), and on the write side Writer.flushBlock. A nil *Metrics strips
// everything to inert branches.

import "hybridplaw/internal/obs"

// Metrics holds the PTRC instruments, all registered against one
// registry. A nil *Metrics disables instrumentation.
type Metrics struct {
	// BlocksRead counts blocks CRC-checked and staged;
	// BlocksWritten counts blocks packed and flushed.
	BlocksRead    *obs.Counter
	BlocksWritten *obs.Counter

	// Read/Write byte totals measure the block payloads in their
	// canonical raw encoding and as stored (headers excluded).
	ReadCompressedBytes  *obs.Counter
	ReadRawBytes         *obs.Counter
	WriteRawBytes        *obs.Counter
	WriteCompressedBytes *obs.Counter

	// CRCFailures counts blocks rejected by the Castagnoli check.
	CRCFailures *obs.Counter

	// UnpackTime spans one block's CRC check and staging (the
	// bit-unpack itself is fused into the consumer's decode walk);
	// PackTime spans one block encode.
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
		BlocksRead: reg.Counter("palu_ptrc_blocks_read_total",
			"archive blocks CRC-checked and staged"),
		BlocksWritten: reg.Counter("palu_ptrc_blocks_written_total",
			"archive blocks packed and flushed"),
		ReadCompressedBytes: reg.Counter("palu_ptrc_read_compressed_bytes_total",
			"stored block payload bytes read"),
		ReadRawBytes: reg.Counter("palu_ptrc_read_raw_bytes_total",
			"canonical raw-encoding bytes of the blocks read"),
		WriteRawBytes: reg.Counter("palu_ptrc_write_raw_bytes_total",
			"canonical raw-encoding bytes of the blocks written"),
		WriteCompressedBytes: reg.Counter("palu_ptrc_write_compressed_bytes_total",
			"stored block payload bytes written"),
		CRCFailures: reg.Counter("palu_ptrc_crc_failures_total",
			"blocks rejected by the CRC check"),
		UnpackTime: reg.Timer("palu_ptrc_unpack_ns",
			"block CRC check + staging time"),
		PackTime: reg.Timer("palu_ptrc_pack_ns",
			"block encode time"),
	}
}

// The nil-safe hooks below are what the codec calls; each is an inert
// branch on a nil bundle.

func (m *Metrics) crcFailure() {
	if m != nil {
		m.CRCFailures.Inc()
	}
}

// unpackStart opens a block's read-side span.
func (m *Metrics) unpackStart() obs.Span {
	if m == nil {
		return obs.Span{}
	}
	return m.UnpackTime.Start()
}

// packStart opens a block's encode span.
func (m *Metrics) packStart() obs.Span {
	if m == nil {
		return obs.Span{}
	}
	return m.PackTime.Start()
}

func (m *Metrics) blockRead(compLen, rawLen int) {
	if m == nil {
		return
	}
	m.BlocksRead.Inc()
	m.ReadCompressedBytes.Add(int64(compLen))
	m.ReadRawBytes.Add(int64(rawLen))
}

func (m *Metrics) blockWritten(rawLen, compLen int) {
	if m == nil {
		return
	}
	m.BlocksWritten.Inc()
	m.WriteRawBytes.Add(int64(rawLen))
	m.WriteCompressedBytes.Add(int64(compLen))
}
