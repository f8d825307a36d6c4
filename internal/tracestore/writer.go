package tracestore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"hybridplaw/internal/stream"
)

// WriterOptions configures a PTRC writer. The zero value selects the
// defaults.
type WriterOptions struct {
	// BlockSize is the number of packets per block; <= 0 selects
	// DefaultBlockSize.
	BlockSize int
	// Level is the DEFLATE compression level (flate.BestSpeed .. 9);
	// 0 selects flate.DefaultCompression. Ignored by CodecPacked.
	Level int
	// Codec selects the block codec. The zero value is CodecDeflate, so
	// pre-codec configurations produce byte-identical archives.
	Codec Codec
	// Metrics, when non-nil, instruments the writer (blocks written,
	// per-codec encode time, raw/compressed byte totals).
	Metrics *Metrics
}

func (o WriterOptions) normalize() (WriterOptions, error) {
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.BlockSize > maxBlockPackets {
		return o, fmt.Errorf("tracestore: block size %d exceeds %d", o.BlockSize, maxBlockPackets)
	}
	if o.Level == 0 {
		o.Level = flate.DefaultCompression
	}
	if o.Level < flate.HuffmanOnly || o.Level > flate.BestCompression {
		return o, fmt.Errorf("tracestore: invalid compression level %d", o.Level)
	}
	if o.Codec >= numCodecs {
		return o, fmt.Errorf("tracestore: unknown codec %d", o.Codec)
	}
	return o, nil
}

// blockEncoder turns one sealed batch of packets into a complete block
// record (tag | header | payload). DEFLATE at a fixed level is
// deterministic per input, the packed codec is canonical, and the
// header is a pure function of the payload, so an archive is a pure
// function of its packets, block size, level and codec sequence.
type blockEncoder struct {
	level int
	fw    *flate.Writer // lazily created on the first DEFLATE block
	rw    recWriter
	raw   []byte
	m     *Metrics
}

// recWriter adapts a plain byte slice into the io.Writer flate needs,
// so records assemble into a reused buffer without a bytes.Buffer.
type recWriter struct{ b []byte }

func (w *recWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// encodeRecord assembles the complete record for packets under codec
// into rec (contents overwritten, capacity reused) and returns it with
// the block's index entry. The packets slice is not retained.
func (e *blockEncoder) encodeRecord(rec []byte, packets []stream.Packet, codec Codec) ([]byte, blockInfo, error) {
	rec = append(rec[:0], tagForCodec(codec))
	var hdr [blockHeaderLen]byte
	rec = append(rec, hdr[:]...)
	var rawLen int
	sp := e.m.encodeStart(codec)
	if codec == CodecPacked {
		e.raw, rawLen = encodeBlockPacked(e.raw[:0], packets)
		rec = append(rec, e.raw...)
	} else {
		e.raw = encodeBlockRaw(e.raw[:0], packets)
		rawLen = len(e.raw)
		if e.fw == nil {
			fw, err := flate.NewWriter(nil, e.level)
			if err != nil {
				return rec, blockInfo{}, err
			}
			e.fw = fw
		}
		e.rw.b = rec
		e.fw.Reset(&e.rw)
		if _, err := e.fw.Write(e.raw); err != nil {
			return e.rw.b, blockInfo{}, err
		}
		if err := e.fw.Close(); err != nil {
			return e.rw.b, blockInfo{}, err
		}
		rec, e.rw.b = e.rw.b, nil
	}
	sp.Stop()

	comp := rec[1+blockHeaderLen:]
	var valid int64
	for _, p := range packets {
		if p.Valid {
			valid++
		}
	}
	info := blockInfo{
		packets: len(packets),
		valid:   valid,
		rawLen:  rawLen,
		compLen: len(comp),
		codec:   codec,
	}
	putBlockHeader(rec[1:], blockHeader{
		packets: info.packets,
		rawLen:  info.rawLen,
		compLen: info.compLen,
		crc:     crc32.Checksum(comp, crcTable),
	})
	return rec, info, nil
}

// Writer streams packets into a PTRC archive. Packets accumulate into a
// block buffer of BlockSize packets; each full block is encoded (see
// encodeBlockRaw), compressed and written as one record, so memory
// stays O(block) regardless of trace length. Close flushes the final
// partial block and writes the index and footer; an archive without
// them is detectably truncated.
type Writer struct {
	w      io.Writer
	opts   WriterOptions
	codec  Codec // codec for the next flushed block (see SetCodec)
	buf    []stream.Packet
	enc    blockEncoder
	recBuf []byte       // record assembly buffer
	rec    bytes.Buffer // index/footer assembly
	blocks []blockInfo
	total  int64
	valid  int64
	closed bool
	err    error
}

// NewWriter writes the file magic and returns a writer archiving into w.
// The caller owns w and must call Close before relying on the archive.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if _, err := io.WriteString(w, fileMagic); err != nil {
		return nil, err
	}
	return &Writer{
		w:     w,
		opts:  opts,
		codec: opts.Codec,
		buf:   make([]stream.Packet, 0, opts.BlockSize),
		enc:   blockEncoder{level: opts.Level, m: opts.Metrics},
	}, nil
}

// SetCodec changes the codec used for blocks flushed from now on —
// including the currently buffered partial block — making mixed-codec
// archives writable without reopening the writer. It returns an error
// only for an unknown codec.
func (w *Writer) SetCodec(c Codec) error {
	if c >= numCodecs {
		return fmt.Errorf("tracestore: unknown codec %d", c)
	}
	w.codec = c
	return nil
}

// Write archives one packet.
func (w *Writer) Write(p stream.Packet) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("tracestore: write after Close")
	}
	w.buf = append(w.buf, p)
	w.total++
	if p.Valid {
		w.valid++
	}
	if len(w.buf) == w.opts.BlockSize {
		return w.flushBlock()
	}
	return nil
}

// writePackets bulk-appends a run of packets, sealing full blocks as
// they fill — the per-block ingest step behind RecordBlocksFrom.
func (w *Writer) writePackets(pkts []stream.Packet) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("tracestore: write after Close")
	}
	for len(pkts) > 0 {
		take := pkts
		if free := w.opts.BlockSize - len(w.buf); len(take) > free {
			take = take[:free]
		}
		w.buf = append(w.buf, take...)
		w.total += int64(len(take))
		for _, p := range take {
			if p.Valid {
				w.valid++
			}
		}
		pkts = pkts[len(take):]
		if len(w.buf) == w.opts.BlockSize {
			if err := w.flushBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

// RecordFrom drains src into the archive and returns the number of
// packets written. Sources that expose whole blocks
// (stream.BlockSource) are drained block-at-a-time rather than
// packet-at-a-time. It does not Close the writer, so several sources
// can be concatenated into one archive.
func (w *Writer) RecordFrom(src stream.PacketSource) (int64, error) {
	if bs, ok := src.(stream.BlockSource); ok {
		return w.RecordBlocksFrom(bs)
	}
	var n int64
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(p); err != nil {
			return n, err
		}
		n++
	}
	return n, src.Err()
}

// RecordBlocksFrom drains src block-at-a-time into the archive — the
// bulk ingest path: one buffer append per source block instead of one
// Write call per packet. The archive is identical to recording the
// same packets one at a time; block boundaries follow the writer's
// BlockSize, never the source's. It returns the number of packets
// written and does not Close the writer.
func (w *Writer) RecordBlocksFrom(src stream.BlockSource) (int64, error) {
	var n int64
	for {
		blk, ok := src.NextBlock()
		if !ok {
			break
		}
		if err := w.writePackets(blk); err != nil {
			return n, err
		}
		n += int64(len(blk))
	}
	return n, src.Err()
}

// flushBlock encodes the buffered packets as one block under the
// writer's current codec and writes the record.
func (w *Writer) flushBlock() error {
	rec, info, err := w.enc.encodeRecord(w.recBuf, w.buf, w.codec)
	w.recBuf = rec
	if err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(rec); err != nil {
		w.err = err
		return err
	}
	w.opts.Metrics.blockWritten(info.codec, info.rawLen, info.compLen)
	w.blocks = append(w.blocks, info)
	w.buf = w.buf[:0]
	return nil
}

// Close flushes the final partial block and writes the trailing index
// and footer. It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.buf) > 0 {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	payload := encodeIndexPayload(w.blocks, w.total, w.valid)
	crc := crc32.Checksum(payload, crcTable)
	indexOffset := int64(len(fileMagic))
	for _, bl := range w.blocks {
		indexOffset += 1 + blockHeaderLen + int64(bl.compLen)
	}

	w.rec.Reset()
	w.rec.WriteByte(tagIndex)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(payload)))
	w.rec.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], crc)
	w.rec.Write(u32[:])
	w.rec.Write(payload)

	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(indexOffset))
	w.rec.Write(u64[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(payload)))
	w.rec.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], crc)
	w.rec.Write(u32[:])
	w.rec.WriteString(footerMagic)

	if _, err := w.w.Write(w.rec.Bytes()); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Packets reports the number of packets archived so far.
func (w *Writer) Packets() int64 { return w.total }

// ValidPackets reports the number of valid packets archived so far.
func (w *Writer) ValidPackets() int64 { return w.valid }

// Record archives an entire packet source into w as one PTRC archive
// (NewWriter + RecordFrom + Close) and returns the packet count. On a
// source or write error the archive is left without its index, so it
// reads as truncated.
func Record(w io.Writer, src stream.PacketSource, opts WriterOptions) (int64, error) {
	tw, err := NewWriter(w, opts)
	if err != nil {
		return 0, err
	}
	n, err := tw.RecordFrom(src)
	if err != nil {
		return n, err
	}
	return n, tw.Close()
}
