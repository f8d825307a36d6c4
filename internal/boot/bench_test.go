package boot_test

// BenchmarkBootstrap records the shared engine's throughput on the real
// consumers (the CI bootstrap-performance record). The external test
// package lets the benchmarks drive estimate and zipfmand, which
// themselves build on boot.

import (
	"runtime"
	"testing"

	"hybridplaw/internal/estimate"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

func benchHistogram(b *testing.B) *hist.Histogram {
	b.Helper()
	params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	h, err := palu.FastObservedHistogram(params, 200000, 0.5, xrand.New(42))
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkBootstrap measures the parallel bootstrap consumers at the
// benchmark's GOMAXPROCS and at GOMAXPROCS=1, so the recorded ratio
// tracks the engine's scaling.
func BenchmarkBootstrap(b *testing.B) {
	h := benchHistogram(b)
	for _, bench := range []struct {
		name  string
		procs int
	}{
		{"estimate/serial", 1},
		{"estimate/parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bench.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bench.procs))
			for i := 0; i < b.N; i++ {
				if _, err := estimate.BootstrapEstimate(
					h, estimate.DefaultOptions(), 20, 0.9, xrand.New(7)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("zipfmand/ci", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := zipfmand.BootstrapCI(
				h, zipfmand.DefaultFitOptions(), 10, 0.9, xrand.New(7)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
