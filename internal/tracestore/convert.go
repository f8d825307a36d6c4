package tracestore

import (
	"io"

	"hybridplaw/internal/stream"
)

// Trace format conversion. These helpers live here rather than in
// internal/stream because stream is the lower layer: tracestore depends
// on stream's Packet and PacketSource, never the reverse. Both
// directions are streaming — packets flow source → writer one at a time,
// so converting a trace never materializes it.

// CSVToPTRC converts a trace CSV (src,dst,valid per line, header
// optional) into a PTRC archive and returns the packet count.
func CSVToPTRC(csv io.Reader, ptrc io.Writer, opts WriterOptions) (int64, error) {
	return Record(ptrc, stream.NewCSVSource(csv), opts)
}

// PTRCToCSV converts a PTRC archive back into the trace CSV format and
// returns the packet count.
func PTRCToCSV(ptrc io.Reader, csv io.Writer) (int64, error) {
	r, err := NewReader(ptrc)
	if err != nil {
		return 0, err
	}
	return stream.WriteTraceCSVFrom(csv, r)
}

// TranscodePTRC re-archives a PTRC stream under opts — the migration
// path between codecs (palu-trace convert -codec). The packet sequence
// is preserved exactly (replay is float-identical by construction: the
// codec changes the bytes on disk, never the decoded packets); only the
// block encoding and block-size boundaries follow opts. It returns the
// packet count. Every block is decoded and re-encoded, so opts.Level
// and opts.BlockSize always take effect. The reader is a
// stream.BlockSource, so the writer's bulk ingest path applies.
func TranscodePTRC(in io.Reader, out io.Writer, opts WriterOptions) (int64, error) {
	r, err := NewReader(in)
	if err != nil {
		return 0, err
	}
	return Record(out, r, opts)
}
