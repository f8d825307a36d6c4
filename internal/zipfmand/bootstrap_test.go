package zipfmand

import (
	"runtime"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/xrand"
)

// zmSampledHistogram draws a histogram from a known ZM model so the CI
// tests have a truth to cover.
func zmSampledHistogram(t *testing.T, m Model, n, dmax int, seed uint64) *hist.Histogram {
	t.Helper()
	pmf, err := m.PMF(dmax)
	if err != nil {
		t.Fatal(err)
	}
	alias, err := xrand.NewAlias(pmf)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed)
	h := hist.New()
	for i := 0; i < n; i++ {
		if err := h.Add(alias.Draw(rng) + 1); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestBootstrapCICoversTruth(t *testing.T) {
	truth := Model{Alpha: 2.1, Delta: 0.4}
	h := zmSampledHistogram(t, truth, 120000, 4000, 3)
	ci, err := BootstrapCI(h, DefaultFitOptions(), 30, 0.9, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if ci.Reps < 15 {
		t.Fatalf("only %d replicates succeeded", ci.Reps)
	}
	// The point fit must lie inside its own bootstrap interval.
	point, _, err := FitHistogram(h, DefaultFitOptions())
	if err != nil {
		t.Fatal(err)
	}
	if point.Alpha < ci.Alpha.Lo || point.Alpha > ci.Alpha.Hi {
		t.Errorf("alpha point %v outside CI [%v, %v]", point.Alpha, ci.Alpha.Lo, ci.Alpha.Hi)
	}
	if point.Delta < ci.Delta.Lo || point.Delta > ci.Delta.Hi {
		t.Errorf("delta point %v outside CI [%v, %v]", point.Delta, ci.Delta.Lo, ci.Delta.Hi)
	}
	if w := ci.Alpha.Hi - ci.Alpha.Lo; w <= 0 || w > 1 {
		t.Errorf("suspicious alpha CI width %v", w)
	}
}

// TestBootstrapCIParallelSerialIdentical is the hardware-aware
// equivalence pin: per-replicate RNG streams make the intervals
// identical at every GOMAXPROCS, on any machine.
func TestBootstrapCIParallelSerialIdentical(t *testing.T) {
	truth := Model{Alpha: 1.9, Delta: -0.3}
	h := zmSampledHistogram(t, truth, 30000, 2000, 9)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var serial ConfidenceIntervals
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		ci, err := BootstrapCI(h, DefaultFitOptions(), 12, 0.9, xrand.New(21))
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

func TestBootstrapCIErrors(t *testing.T) {
	rng := xrand.New(1)
	if _, err := BootstrapCI(nil, DefaultFitOptions(), 20, 0.9, rng); err == nil {
		t.Error("nil histogram: expected error")
	}
	if _, err := BootstrapCI(hist.New(), DefaultFitOptions(), 20, 0.9, rng); err == nil {
		t.Error("empty histogram: expected error")
	}
	h, _ := hist.FromCounts(map[int]int64{1: 100, 2: 40, 4: 20, 8: 10})
	if _, err := BootstrapCI(h, DefaultFitOptions(), 5, 0.9, rng); err == nil {
		t.Error("reps<10: expected error")
	}
	if _, err := BootstrapCI(h, DefaultFitOptions(), 20, 0, rng); err == nil {
		t.Error("level=0: expected error")
	}
}
