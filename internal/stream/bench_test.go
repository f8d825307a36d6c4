package stream

// Streaming-pipeline throughput on multi-million-packet synthetic
// traces, one window resident. Run with:
//
//	go test ./internal/stream -run '^$' -bench BenchmarkPipeline -benchtime 1x
//
// The pipeline runs twice per size: pipeline-<size> reads all five
// quantities, and pipeline-1q-<size> reads one, as a Fig. 3 panel does,
// so each window counts per-source packets and builds no link table.

import (
	"fmt"
	"testing"

	"hybridplaw/internal/xrand"
)

// benchTrace synthesizes a heavy-tailed-ish trace: sources and
// destinations drawn from a large sparse id space with a hot head, 2%
// invalid packets — the shape the observatory pipeline actually sees.
func benchTrace(n int) []Packet {
	r := xrand.New(1)
	ps := make([]Packet, n)
	for i := range ps {
		// Mix a hot head (frequent talkers) with a long sparse tail.
		var src, dst uint32
		if r.Bernoulli(0.3) {
			src, dst = uint32(r.Intn(1<<10)), uint32(r.Intn(1<<10))
		} else {
			src, dst = uint32(r.Intn(1<<20)), uint32(r.Intn(1<<20))
		}
		ps[i] = Packet{Src: src, Dst: dst, Valid: i%50 != 0}
	}
	return ps
}

func BenchmarkPipeline(b *testing.B) {
	for _, cfg := range []struct {
		packets int
		nv      int64
	}{
		{1_000_000, 100_000},
		{10_000_000, 1_000_000},
	} {
		ps := benchTrace(cfg.packets)
		label := fmt.Sprintf("%dM", cfg.packets/1_000_000)
		for _, p := range []struct {
			name string
			qs   []Quantity
		}{
			{"pipeline-", Quantities},
			{"pipeline-1q-", []Quantity{SourcePackets}},
		} {
			b.Run(p.name+label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink := NewEnsembleSink(p.qs...)
					if _, err := Run(NewSliceSource(ps), PipelineConfig{NV: cfg.nv}, sink); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cfg.packets)*float64(b.N)/b.Elapsed().Seconds(), "packets/s")
			})
		}
	}
}
