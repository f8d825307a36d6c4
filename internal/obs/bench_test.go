package obs

import "testing"

// The micro-benchmarks pin the per-operation cost of the instruments so
// a regression in the hot-path primitives is visible before it shows up
// in the end-to-end BenchmarkMetricsOverhead ratio.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("palu_bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("palu_bench_ns", "", DefaultLatencyBounds())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) & 0xffff)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("palu_bench_par_ns", "", DefaultLatencyBounds())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var v int64
		for pb.Next() {
			v++
			h.Observe(v & 0xffff)
		}
	})
}

func BenchmarkTimer(b *testing.B) {
	tm := NewRegistry().Timer("palu_bench_stage_ns", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tm.Start()
		sp.Stop()
	}
}

func BenchmarkTimerNil(b *testing.B) {
	var tm *Timer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tm.Start()
		sp.Stop()
	}
}
