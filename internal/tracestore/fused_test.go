package tracestore

// The fused-replay property pin: the one-pass DecodeInto path must be
// byte-identical to the per-packet decode→reduce path, including the
// KeepPartials/PartialSink products. The unfused reference is obtained by wrapping a reader so
// the pipeline cannot see its EncodedBlockSource implementation and
// reads it one packet at a time through Next.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hybridplaw/internal/stream"
)

// unfusedSource hides a reader's EncodedBlockSource implementation so
// stream.Run takes the per-packet Next path: the behavioral reference
// the fused path is pinned against.
type unfusedSource struct {
	src interface {
		stream.PacketSource
		stream.PacketCounter
	}
}

func (u unfusedSource) Next() (stream.Packet, bool) { return u.src.Next() }
func (u unfusedSource) Err() error                  { return u.src.Err() }
func (u unfusedSource) PacketsRead() int64          { return u.src.PacketsRead() }

// renderResults serializes window results into the byte form a sink
// artifact would carry: aggregates plus every histogram's full
// (degree, count) support, in order. Byte equality is the acceptance
// bar for "sinks byte-identical on both paths".
func renderResults(wins []*stream.WindowResult) []byte {
	var b bytes.Buffer
	for _, w := range wins {
		fmt.Fprintf(&b, "t=%d nv=%d agg=%+v\n", w.T, w.NV, w.Aggregates)
		for _, q := range stream.Quantities {
			h := w.Hists[q]
			fmt.Fprintf(&b, "%v total=%d dmax=%d:", q, h.Total(), h.MaxDegree())
			for _, d := range h.Support() {
				fmt.Fprintf(&b, " %d=%d", d, h.Count(d))
			}
			b.WriteByte('\n')
		}
		if w.Matrix != nil {
			fmt.Fprintf(&b, "matrix nnz=%d total=%d\n", w.Matrix.UniqueLinks(), w.Matrix.ValidPackets())
		}
	}
	return b.Bytes()
}

// TestFusedReplayEquivalence pins the fused decode→reduce path against
// the unfused per-packet path: both must yield byte-identical window
// artifacts, identical pipeline stats, and (via PartialSink) identical
// canonical partials.
func TestFusedReplayEquivalence(t *testing.T) {
	const (
		n     = 60000
		block = 1 << 10
		nv    = 7000
	)
	ps := synthPackets(42, n, 3000, 13)
	data := writeArchive(t, ps, WriterOptions{BlockSize: block})

	type capture struct {
		stats    stream.PipelineStats
		rendered []byte
		partials []stream.WindowResult
	}
	run := func(src stream.PacketSource) capture {
		t.Helper()
		var col stream.ResultCollector
		sink := &stream.PartialSink{}
		cfg := stream.PipelineConfig{NV: nv, KeepMatrices: true, KeepPartials: true}
		stats, err := stream.Run(src, cfg, &col, sink)
		if err != nil {
			t.Fatal(err)
		}
		if len(sink.Partials) != len(col.Results) {
			t.Fatalf("%d partials, %d windows", len(sink.Partials), len(col.Results))
		}
		c := capture{stats: stats, rendered: renderResults(col.Results)}
		for i, p := range sink.Partials {
			if p.Total() != col.Results[i].NV {
				t.Fatalf("window %d: partial total %d, NV %d", i, p.Total(), col.Results[i].NV)
			}
		}
		for _, res := range col.Results {
			c.partials = append(c.partials, *res)
		}
		return c
	}

	newSeq := func() stream.PacketSource {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	newSeqUnfused := func() stream.PacketSource {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return unfusedSource{src: r}
	}

	ref := run(newSeqUnfused())
	if ref.stats.Windows == 0 {
		t.Fatal("reference run produced no windows")
	}
	got := run(newSeq())
	if got.stats != ref.stats {
		t.Errorf("fused stats %+v, want %+v", got.stats, ref.stats)
	}
	if !bytes.Equal(got.rendered, ref.rendered) {
		t.Error("fused window artifacts diverge from the unfused reference")
	}
	for i := range ref.partials {
		if !reflect.DeepEqual(ref.partials[i].Partial.Entries(), got.partials[i].Partial.Entries()) {
			t.Fatalf("window %d: fused partial entries diverge", i)
		}
	}
}

// TestDecodeIntoDirect drives the fused sequential path through an
// exported PairWindow directly (no pipeline), pinning the low-level
// contract: Remaining decreases by exactly the valid packets deposited,
// the walker resumes mid-block across window boundaries, and the
// valid/invalid split sums to the archive totals.
func TestDecodeIntoDirect(t *testing.T) {
	const n = 5000
	ps := synthPackets(7, n, 500, 5)
	wantValid := int64(0)
	for _, p := range ps {
		if p.Valid {
			wantValid++
		}
	}
	data := writeArchive(t, ps, WriterOptions{BlockSize: 256})
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	const nv = 777 // deliberately misaligned with the block size
	w := stream.NewPairWindow(nv)
	var valid, invalid int64
	windows := 0
	for {
		v, iv, full, ok := r.DecodeInto(w)
		valid += v
		invalid += iv
		if full {
			if w.Remaining() != 0 {
				t.Fatalf("full window reports Remaining() = %d", w.Remaining())
			}
			windows++
			w.Reset()
		}
		if !ok {
			break
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if valid != wantValid || valid+invalid != int64(n) {
		t.Fatalf("DecodeInto split %d/%d, want %d valid of %d", valid, invalid, wantValid, n)
	}
	if want := int(wantValid / nv); windows != want {
		t.Fatalf("DecodeInto closed %d windows, want %d", windows, want)
	}
	if r.PacketsRead() != int64(n) {
		t.Fatalf("PacketsRead = %d, want %d", r.PacketsRead(), n)
	}
}
