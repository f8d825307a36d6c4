package tracestore

import (
	"bytes"
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
	// BlockSize is the number of packets per block; 0 selects
	// DefaultBlockSize, and a negative size is an error.
	BlockSize int
	// Metrics, when non-nil, instruments the writer (blocks written,
	// per-block encode time, raw/compressed byte totals).
	Metrics *Metrics
}

func (o WriterOptions) normalize() (WriterOptions, error) {
	switch {
	case o.BlockSize < 0:
		return o, fmt.Errorf("tracestore: block size %d is negative", o.BlockSize)
	case o.BlockSize == 0:
		o.BlockSize = DefaultBlockSize
	case o.BlockSize > maxBlockPackets:
		return o, fmt.Errorf("tracestore: block size %d exceeds %d", o.BlockSize, maxBlockPackets)
	}
	return o, nil
}

// Writer streams packets into a PTRC archive. Packets accumulate into a
// block buffer of BlockSize packets; each full block is packed (see
// encodeBlockPacked) and written as one record, so memory stays
// O(block) regardless of trace length. The packed codec is canonical
// and the header is a pure function of the payload, so an archive is a
// pure function of its packets and block size. Close flushes the final
// partial block and writes the index and footer; an archive without
// them is detectably truncated.
type Writer struct {
	w      io.Writer
	opts   WriterOptions
	buf    []stream.Packet
	recBuf []byte       // block record assembly buffer
	rec    bytes.Buffer // index/footer assembly
	blocks []blockInfo
	total  int64
	valid  int64
	// flushed is the valid packets of the blocks already written, so a
	// block's own count is valid − flushed.
	flushed int64
	closed  bool
	err     error
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
		w:    w,
		opts: opts,
		buf:  make([]stream.Packet, 0, opts.BlockSize),
	}, nil
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

// RecordFrom drains src into the archive and returns the number of
// packets written. It does not Close the writer, so several sources can
// be concatenated into one archive.
func (w *Writer) RecordFrom(src stream.PacketSource) (int64, error) {
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

// flushBlock packs the buffered packets into one block record (tag |
// header | payload), assembled in a reused buffer, and writes it.
func (w *Writer) flushBlock() error {
	rec := append(w.recBuf[:0], tagBlock)
	var hdr [blockHeaderLen]byte
	rec = append(rec, hdr[:]...)
	sp := w.opts.Metrics.packStart()
	rec, rawLen := encodeBlockPacked(rec, w.buf)
	sp.Stop()
	w.recBuf = rec

	comp := rec[1+blockHeaderLen:]
	info := blockInfo{
		packets: len(w.buf),
		valid:   w.valid - w.flushed,
		rawLen:  rawLen,
		compLen: len(comp),
	}
	putBlockHeader(rec[1:], blockHeader{
		packets: info.packets,
		rawLen:  info.rawLen,
		compLen: info.compLen,
		crc:     crc32.Checksum(comp, crcTable),
	})
	if _, err := w.w.Write(rec); err != nil {
		w.err = err
		return err
	}
	w.opts.Metrics.blockWritten(info.rawLen, info.compLen)
	w.blocks = append(w.blocks, info)
	w.buf = w.buf[:0]
	w.flushed = w.valid
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
