package stats

import (
	"math"
	"testing"

	"hybridplaw/internal/xrand"
)

func TestKSDiscretePerfectFit(t *testing.T) {
	obs := []float64{50, 30, 20}
	cdf := []float64{0.5, 0.8, 1.0}
	if d := KSDiscrete(obs, cdf); d > 1e-12 {
		t.Errorf("perfect fit KS = %v", d)
	}
}

func TestKSDiscreteKnownDeviation(t *testing.T) {
	obs := []float64{100, 0}   // empirical CDF: 1.0, 1.0
	cdf := []float64{0.5, 1.0} // model
	if d := KSDiscrete(obs, cdf); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("KS = %v want 0.5", d)
	}
}

func TestKSDiscreteInvalid(t *testing.T) {
	if !math.IsNaN(KSDiscrete(nil, nil)) {
		t.Error("empty: want NaN")
	}
	if !math.IsNaN(KSDiscrete([]float64{1}, []float64{0.5, 1})) {
		t.Error("length mismatch: want NaN")
	}
	if !math.IsNaN(KSDiscrete([]float64{0, 0}, []float64{0.5, 1})) {
		t.Error("zero mass: want NaN")
	}
	if !math.IsNaN(KSDiscrete([]float64{-1, 2}, []float64{0.5, 1})) {
		t.Error("negative count: want NaN")
	}
}

func TestBootstrapCountsPreservesTotal(t *testing.T) {
	r := xrand.New(77)
	counts := []float64{10, 40, 0, 50}
	res := BootstrapCounts(r, counts, 1000)
	var total float64
	for i, c := range res {
		if c < 0 {
			t.Fatalf("negative resample count at %d", i)
		}
		total += c
	}
	if total != 1000 {
		t.Errorf("resample total = %v want 1000", total)
	}
	if res[2] != 0 {
		t.Errorf("zero-mass support point resampled %v times", res[2])
	}
}

func TestBootstrapCountsDistribution(t *testing.T) {
	r := xrand.New(123)
	counts := []float64{25, 75}
	agg := make([]float64, 2)
	const reps = 200
	const n = 1000
	for i := 0; i < reps; i++ {
		res := BootstrapCounts(r, counts, n)
		agg[0] += res[0]
		agg[1] += res[1]
	}
	frac := agg[0] / (agg[0] + agg[1])
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("bootstrap fraction = %v want 0.25", frac)
	}
}

func TestBootstrapCountsDegenerate(t *testing.T) {
	r := xrand.New(1)
	res := BootstrapCounts(r, []float64{0, 0}, 10)
	for _, c := range res {
		if c != 0 {
			t.Error("zero-mass input should produce zero resample")
		}
	}
	res = BootstrapCounts(r, []float64{1, 2}, 0)
	for _, c := range res {
		if c != 0 {
			t.Error("n=0 should produce zero resample")
		}
	}
}
