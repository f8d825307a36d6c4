package palu

import (
	"testing"

	"hybridplaw/internal/xrand"
)

func BenchmarkFastDirectedHistograms(b *testing.B) {
	params, err := FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FastDirectedHistograms(params, 100000, 0.5, 0.5, r); err != nil {
			b.Fatal(err)
		}
	}
}
