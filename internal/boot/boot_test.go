package boot

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/xrand"
)

// replicateDraws is a replicate that consumes its RNG stream and returns
// a value fully determined by (rep, stream).
func replicateDraws(rep int, rng *xrand.RNG) (float64, error) {
	var s float64
	for i := 0; i < 100; i++ {
		s += rng.Float64()
	}
	return s + float64(rep)*1000, nil
}

func TestRunSerialParallelReplicateIdentical(t *testing.T) {
	const reps = 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var serialVals []float64
	var serialErrs []error
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		vals, errs, err := Run(reps, xrand.New(7), replicateDraws)
		if err != nil {
			t.Fatal(err)
		}
		if procs == 1 {
			serialVals, serialErrs = vals, errs
			continue
		}
		for r := range vals {
			if vals[r] != serialVals[r] {
				t.Fatalf("GOMAXPROCS=%d: replicate %d = %v, serial %v",
					procs, r, vals[r], serialVals[r])
			}
			if (errs[r] == nil) != (serialErrs[r] == nil) {
				t.Fatalf("GOMAXPROCS=%d: replicate %d error mismatch", procs, r)
			}
		}
	}
}

func TestRunAdvancesParentIdentically(t *testing.T) {
	// The parent generator must advance by exactly reps draws at any
	// pool width, so code after a bootstrap stays deterministic.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	after := func(procs int) uint64 {
		runtime.GOMAXPROCS(procs)
		rng := xrand.New(99)
		if _, _, err := Run(10, rng, replicateDraws); err != nil {
			t.Fatal(err)
		}
		return rng.Uint64()
	}
	serial := after(1)
	if got := after(4); got != serial {
		t.Fatalf("parent stream diverged: %d vs %d", got, serial)
	}
}

func TestRunCollectsPerReplicateErrors(t *testing.T) {
	vals, errs, err := Run(5, xrand.New(1), func(rep int, rng *xrand.RNG) (int, error) {
		if rep%2 == 1 {
			return 0, fmt.Errorf("rep %d failed", rep)
		}
		return rep * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		if r%2 == 1 {
			if errs[r] == nil {
				t.Errorf("replicate %d: expected error", r)
			}
		} else if errs[r] != nil || vals[r] != r*10 {
			t.Errorf("replicate %d: got (%d, %v)", r, vals[r], errs[r])
		}
	}
}

func TestRunArgumentErrors(t *testing.T) {
	fn := func(int, *xrand.RNG) (int, error) { return 0, nil }
	if _, _, err := Run(0, xrand.New(1), fn); err == nil {
		t.Error("reps=0: expected error")
	}
	if _, _, err := Run(5, nil, fn); err == nil {
		t.Error("nil rng: expected error")
	}
	if _, _, err := Run[int](5, xrand.New(1), nil); err == nil {
		t.Error("nil fn: expected error")
	}
}

func TestResampleHistogram(t *testing.T) {
	h, err := hist.FromCounts(map[int]int64{1: 500, 2: 200, 3: 100, 10: 50, 100: 10})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := ResampleHistogram(h, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if hb.Total() != h.Total() {
		t.Errorf("resampled total %d != %d", hb.Total(), h.Total())
	}
	for _, d := range hb.Support() {
		if h.Count(d) == 0 {
			t.Errorf("resampled degree %d not in original support", d)
		}
	}
	if _, err := ResampleHistogram(hist.New(), xrand.New(1)); err == nil {
		t.Error("empty histogram: expected error")
	}
	if _, err := ResampleHistogram(nil, xrand.New(1)); err == nil {
		t.Error("nil histogram: expected error")
	}
}

func TestPercentileInterval(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	iv := PercentileInterval(xs, 0.9)
	if iv.Lo > 6 || iv.Lo < 4 || iv.Hi < 94 || iv.Hi > 96 {
		t.Errorf("90%% interval of 0..100 = %+v", iv)
	}
	if !iv.Contains(50) || iv.Contains(-1) {
		t.Error("Contains wrong")
	}
	if iv := PercentileInterval(nil, 0.9); iv != (Interval{}) {
		t.Errorf("empty input: %+v", iv)
	}
}

var errSentinel = errors.New("sentinel")

func TestRunErrorDoesNotCancelOthers(t *testing.T) {
	vals, errs, err := Run(8, xrand.New(5), func(rep int, rng *xrand.RNG) (int, error) {
		if rep == 3 {
			return 0, errSentinel
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for r := range vals {
		if errs[r] == nil {
			ok += vals[r]
		}
	}
	if ok != 7 {
		t.Errorf("expected 7 successful replicates, got %d", ok)
	}
}
