package estimate

import (
	"runtime"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/xrand"
)

func TestBootstrapEstimateCoversTruth(t *testing.T) {
	params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(31)
	h, err := palu.FastObservedHistogram(params, 400000, 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := BootstrapEstimate(h, DefaultOptions(), 40, 0.9, r)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Reps < 20 {
		t.Fatalf("only %d replicates succeeded", ci.Reps)
	}
	// The point estimate must lie inside its own bootstrap interval.
	point, err := Estimate(h, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if point.Alpha < ci.Alpha.Lo || point.Alpha > ci.Alpha.Hi {
		t.Errorf("alpha point %v outside CI [%v, %v]", point.Alpha, ci.Alpha.Lo, ci.Alpha.Hi)
	}
	if point.Mu < ci.Mu.Lo || point.Mu > ci.Mu.Hi {
		t.Errorf("mu point %v outside CI [%v, %v]", point.Mu, ci.Mu.Lo, ci.Mu.Hi)
	}
	// Intervals must be proper and reasonably tight on 400k observations.
	for name, iv := range map[string]Interval{
		"alpha": ci.Alpha, "c": ci.C, "l": ci.L, "u": ci.U, "mu": ci.Mu,
	} {
		if iv.Hi < iv.Lo {
			t.Errorf("%s: inverted interval %+v", name, iv)
		}
	}
	if ci.Alpha.Hi-ci.Alpha.Lo > 0.5 {
		t.Errorf("alpha CI suspiciously wide: %+v", ci.Alpha)
	}
}

func TestBootstrapEstimateErrors(t *testing.T) {
	r := xrand.New(1)
	if _, err := BootstrapEstimate(nil, DefaultOptions(), 20, 0.9, r); err == nil {
		t.Error("nil histogram: expected error")
	}
	if _, err := BootstrapEstimate(hist.New(), DefaultOptions(), 20, 0.9, r); err == nil {
		t.Error("empty histogram: expected error")
	}
	h, _ := hist.FromCounts(map[int]int64{1: 10, 20: 5, 40: 3, 80: 2, 160: 1})
	if _, err := BootstrapEstimate(h, DefaultOptions(), 5, 0.9, r); err == nil {
		t.Error("reps<10: expected error")
	}
	if _, err := BootstrapEstimate(h, DefaultOptions(), 20, 1.5, r); err == nil {
		t.Error("level>1: expected error")
	}
}

// TestBootstrapEstimateParallelSerialIdentical is the hardware-aware
// equivalence pin: deterministic per-replicate RNG streams make the
// intervals identical at every GOMAXPROCS, on any machine (speedup
// itself is asserted in internal/testenv).
func TestBootstrapEstimateParallelSerialIdentical(t *testing.T) {
	params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := palu.FastObservedHistogram(params, 120000, 0.5, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var serial ConfidenceIntervals
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		ci, err := BootstrapEstimate(h, DefaultOptions(), 12, 0.9, xrand.New(77))
		if err != nil {
			t.Fatal(err)
		}
		if procs == 1 {
			serial = ci
		} else if ci != serial {
			t.Errorf("GOMAXPROCS=%d: CI %+v != serial %+v", procs, ci, serial)
		}
	}
}
