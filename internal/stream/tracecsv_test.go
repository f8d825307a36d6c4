package stream

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// readTraceCSV drains a CSVSource over r into memory.
func readTraceCSV(r io.Reader) ([]Packet, error) {
	src := NewCSVSource(r)
	var out []Packet
	for {
		p, ok := src.Next()
		if !ok {
			return out, src.Err()
		}
		out = append(out, p)
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	in := []Packet{
		{Src: 1, Dst: 2, Valid: true},
		{Src: 4294967295, Dst: 0, Valid: false},
		{Src: 7, Dst: 7, Valid: true},
	}
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d != %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("packet %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestReadTraceCSVHeaderOptional(t *testing.T) {
	for _, body := range []string{
		"1,2,1\n3,4,0\n",                      // no header
		"src,dst,valid\n1,2,1\n3,4,0\n",       // header
		"\n  \nsrc,dst,valid\n1,2,1\n3,4,0\n", // header after blank lines
	} {
		out, err := readTraceCSV(strings.NewReader(body))
		if err != nil {
			t.Errorf("%q: %v", body, err)
			continue
		}
		if len(out) != 2 || out[0] != (Packet{Src: 1, Dst: 2, Valid: true}) || out[1] != (Packet{Src: 3, Dst: 4}) {
			t.Errorf("%q: parsed %+v", body, out)
		}
	}
}

func TestReadTraceCSVErrors(t *testing.T) {
	// A trace with no packets is not a parse error: the source ends
	// cleanly, and a pipeline over it delivers no windows.
	for _, body := range []string{"", "src,dst,valid\n"} {
		if out, err := readTraceCSV(strings.NewReader(body)); err != nil || len(out) != 0 {
			t.Errorf("%q: got %d packets, err %v; want none, nil", body, len(out), err)
		}
	}
	cases := []struct {
		name, body, line string
	}{
		{"wrong fields", "src,dst,valid\n1,2\n", "line 2"},
		{"bad number", "src,dst,valid\n1,x,1\n", "line 2"},
		{"bad flag", "src,dst,valid\n1,2,5\n", "line 2"},
		{"mid-file garbage", "1,2,1\nnot,a,packet\n", "line 2"},
		{"malformed first record", "68,291,false\n1,2,1\n", "line 1"},
		{"malformed first record after a blank line", "\n68,291,false\n", "line 2"},
		{"second header", "src,dst,valid\nsrc,dst,valid\n", "line 2"},
	}
	for _, c := range cases {
		_, err := readTraceCSV(strings.NewReader(c.body))
		if err == nil || !strings.Contains(err.Error(), c.line+":") {
			t.Errorf("%s: error %v, want one naming %s", c.name, err, c.line)
		}
	}
}

func TestWriteTraceCSVFromStreams(t *testing.T) {
	// The streaming writer must match the slice wrapper byte for byte and
	// report the packet count.
	ps := mkPackets(3, 1200, 64, 4)
	var a, b bytes.Buffer
	if err := WriteTraceCSV(&a, ps); err != nil {
		t.Fatal(err)
	}
	n, err := WriteTraceCSVFrom(&b, NewSliceSource(ps))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(ps)) {
		t.Errorf("wrote %d packets, want %d", n, len(ps))
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteTraceCSVFrom output differs from WriteTraceCSV")
	}
}

func TestCSVSourcePacketsRead(t *testing.T) {
	ps := mkPackets(5, 500, 64, 4)
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, ps); err != nil {
		t.Fatal(err)
	}
	src := NewCSVSource(&buf)
	if src.PacketsRead() != 0 {
		t.Errorf("PacketsRead before reading = %d", src.PacketsRead())
	}
	seen := int64(0)
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		seen++
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if src.PacketsRead() != seen || seen != int64(len(ps)) {
		t.Errorf("PacketsRead = %d, delivered %d, trace %d", src.PacketsRead(), seen, len(ps))
	}
}

func TestPipelineSurfacesSourcePacketsRead(t *testing.T) {
	ps := mkPackets(6, 3000, 64, 4)
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, ps); err != nil {
		t.Fatal(err)
	}
	stats, err := Run(NewCSVSource(&buf), PipelineConfig{NV: 500}, FuncSink(func(*WindowResult) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SourcePacketsRead != int64(len(ps)) {
		t.Errorf("SourcePacketsRead = %d, want %d", stats.SourcePacketsRead, len(ps))
	}
	if stats.SourcePacketsRead != stats.ValidPackets+stats.InvalidPackets {
		t.Errorf("accounting mismatch: %d read vs %d valid + %d invalid",
			stats.SourcePacketsRead, stats.ValidPackets, stats.InvalidPackets)
	}
	// A source that cannot count reports -1.
	stats, err = Run(&uncountedSource{packets: ps}, PipelineConfig{NV: 500},
		FuncSink(func(*WindowResult) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SourcePacketsRead != -1 {
		t.Errorf("uncounted source: SourcePacketsRead = %d, want -1", stats.SourcePacketsRead)
	}
}

// uncountedSource is a PacketSource without the PacketCounter extension.
type uncountedSource struct {
	packets []Packet
	i       int
}

func (s *uncountedSource) Next() (Packet, bool) {
	if s.i >= len(s.packets) {
		return Packet{}, false
	}
	p := s.packets[s.i]
	s.i++
	return p, true
}

func (s *uncountedSource) Err() error { return nil }

func TestTraceCSVThroughPipeline(t *testing.T) {
	// Integration: archive a synthetic trace, re-read it, and verify the
	// pipeline cuts identical windows from both.
	ps := mkPackets(9, 3000, 64, 4)
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, ps); err != nil {
		t.Fatal(err)
	}
	replayed, err := readTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := collect(t, ps, 500)
	b, _ := collect(t, replayed, 500)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("window counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Aggregates != b[i].Aggregates {
			t.Errorf("window %d aggregates differ", i)
		}
		if !reflect.DeepEqual(a[i].Matrix.Entries(), b[i].Matrix.Entries()) {
			t.Errorf("window %d matrices differ", i)
		}
	}
}
