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
	if !ci.Alpha.Contains(point.Alpha) {
		t.Errorf("alpha point %v outside CI [%v, %v]", point.Alpha, ci.Alpha.Lo, ci.Alpha.Hi)
	}
	if !ci.Mu.Contains(point.Mu) {
		t.Errorf("mu point %v outside CI [%v, %v]", point.Mu, ci.Mu.Lo, ci.Mu.Hi)
	}
	// Intervals must be proper and reasonably tight on 400k observations.
	for name, iv := range map[string]Interval{
		"alpha": ci.Alpha, "c": ci.C, "l": ci.L, "u": ci.U, "mu": ci.Mu,
	} {
		if iv.Width() < 0 {
			t.Errorf("%s: inverted interval %+v", name, iv)
		}
	}
	if ci.Alpha.Width() > 0.5 {
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

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 3}
	if !iv.Contains(2) || iv.Contains(0.5) || iv.Contains(3.5) {
		t.Error("Contains wrong")
	}
	if iv.Width() != 2 {
		t.Errorf("Width = %v", iv.Width())
	}
}
