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
