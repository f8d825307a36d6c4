package stream

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Packet trace interchange: a minimal CSV codec (src,dst,valid per line)
// so external anonymized traces can be replayed through the measurement
// pipeline and synthetic traces can be archived. The format deliberately
// carries no payloads or timestamps — the paper's analysis uses only the
// (source, destination) sequence of valid packets.

// WriteTraceCSVFrom streams packets from src as "src,dst,valid" lines
// with a header, and returns the number of packets written. Packets
// stream through a small line buffer, so archiving a trace never
// requires materializing it.
func WriteTraceCSVFrom(w io.Writer, src PacketSource) (int64, error) {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "src,dst,valid"); err != nil {
		return 0, err
	}
	var n int64
	buf := make([]byte, 0, 32)
	for p, ok := src.Next(); ok; p, ok = src.Next() {
		buf = strconv.AppendUint(buf[:0], uint64(p.Src), 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, uint64(p.Dst), 10)
		if p.Valid {
			buf = append(buf, ",1\n"...)
		} else {
			buf = append(buf, ",0\n"...)
		}
		if _, err := bw.Write(buf); err != nil {
			return n, err
		}
		n++
	}
	if err := src.Err(); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// CSVSource streams packets from a trace CSV one line at a time, so a
// trace of any length replays through the pipeline in bounded memory. It
// implements PacketSource; malformed lines terminate the stream with an
// error carrying the line number rather than silently dropping packets
// (a trace with holes would bias every downstream distribution).
type CSVSource struct {
	sc     *bufio.Scanner
	line   int
	read   int64
	err    error
	done   bool
	record bool // a non-blank line has been read
}

// NewCSVSource returns a streaming reader over a trace written by
// WriteTraceCSVFrom. The header is optional: the first non-blank line is
// taken for one only when its first field is not an unsigned integer.
func NewCSVSource(r io.Reader) *CSVSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &CSVSource{sc: sc}
}

// Next implements PacketSource.
func (s *CSVSource) Next() (Packet, bool) {
	if s.done {
		return Packet{}, false
	}
	for s.sc.Scan() {
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if text == "" {
			continue
		}
		p, ok, err := parseTraceLine(text, s.line, !s.record)
		s.record = true
		if err != nil {
			s.err = err
			s.done = true
			return Packet{}, false
		}
		if !ok { // header
			continue
		}
		s.read++
		return p, true
	}
	s.done = true
	s.err = s.sc.Err()
	return Packet{}, false
}

// Err implements PacketSource.
func (s *CSVSource) Err() error { return s.err }

// PacketsRead reports the number of packets decoded so far (header and
// blank lines excluded). After the stream ends it is the total packet
// count of the trace, so callers comparing it against an expected length
// — or against PipelineStats.SourcePacketsRead — can detect truncated
// archives.
func (s *CSVSource) PacketsRead() int64 { return s.read }

// parseTraceLine parses one non-empty trace line; first marks the
// trace's first non-blank line. ok = false with a nil error marks the
// header: a first line whose first field is not an unsigned integer.
// Any other unparseable line, the first included, is an error.
func parseTraceLine(text string, line int, first bool) (Packet, bool, error) {
	parts := strings.Split(text, ",")
	if len(parts) != 3 {
		return Packet{}, false, fmt.Errorf("stream: line %d: want 3 fields, got %d", line, len(parts))
	}
	field := strings.TrimSpace(parts[0])
	if _, err := strconv.ParseUint(field, 10, 64); err != nil && first {
		return Packet{}, false, nil // header
	}
	src, err1 := strconv.ParseUint(field, 10, 32)
	dst, err2 := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 32)
	val, err3 := strconv.Atoi(strings.TrimSpace(parts[2]))
	if err1 != nil || err2 != nil || err3 != nil {
		return Packet{}, false, fmt.Errorf("stream: line %d: unparseable %q", line, text)
	}
	if val != 0 && val != 1 {
		return Packet{}, false, fmt.Errorf("stream: line %d: valid flag %d not 0/1", line, val)
	}
	return Packet{Src: uint32(src), Dst: uint32(dst), Valid: val == 1}, true, nil
}
