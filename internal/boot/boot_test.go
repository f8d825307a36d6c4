package boot

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/testenv"
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
	serialVals, serialErrs, err := Run(reps, 1, xrand.New(7), replicateDraws)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		vals, errs, err := Run(reps, workers, xrand.New(7), replicateDraws)
		if err != nil {
			t.Fatal(err)
		}
		for r := range vals {
			if vals[r] != serialVals[r] {
				t.Fatalf("workers=%d: replicate %d = %v, serial %v",
					workers, r, vals[r], serialVals[r])
			}
			if (errs[r] == nil) != (serialErrs[r] == nil) {
				t.Fatalf("workers=%d: replicate %d error mismatch", workers, r)
			}
		}
	}
}

func TestRunAdvancesParentIdentically(t *testing.T) {
	// The parent generator must advance by exactly reps draws regardless
	// of worker count, so code after a bootstrap stays deterministic.
	after := func(workers int) uint64 {
		rng := xrand.New(99)
		if _, _, err := Run(10, workers, rng, replicateDraws); err != nil {
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
	vals, errs, err := Run(5, 2, xrand.New(1), func(rep int, rng *xrand.RNG) (int, error) {
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
	if _, _, err := Run(0, 1, xrand.New(1), fn); err == nil {
		t.Error("reps=0: expected error")
	}
	if _, _, err := Run(5, 1, nil, fn); err == nil {
		t.Error("nil rng: expected error")
	}
	if _, _, err := Run[int](5, 1, xrand.New(1), nil); err == nil {
		t.Error("nil fn: expected error")
	}
}

// TestRunParallelSpeedup asserts a wall-clock speedup wherever there is
// a second core to overlap on; a single-core machine skips it, and the
// replicate-identity checks above cover correctness everywhere. The
// median of five serial/4-worker pairs that no other process slowed
// (testenv.MedianSpeedup) must clear 1.15x, above timing noise and below
// the 1.26–2.04x measured at 2 CPUs, so a Run that ignored its worker
// count fails. Each pair is short (~0.2 s) and its ratio swings widely
// on a shared host, hence five pairs, not three. A machine that stays
// busy for the whole wait skips the gate below 4 CPUs and is judged on
// every pair measured from 4 up.
func TestRunParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("NumCPU=%d: speedup not expected; equivalence tests cover correctness", runtime.NumCPU())
	}
	work := func(rep int, rng *xrand.RNG) (float64, error) {
		var s float64
		for i := 0; i < 2_000_000; i++ {
			s += rng.Float64()
		}
		return s, nil
	}
	const reps, workers = 16, 4
	timed := func(workers int) time.Duration {
		start := time.Now()
		if _, _, err := Run(reps, workers, xrand.New(3), work); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	const want = 1.15
	speedup, uncontended := testenv.MedianSpeedup(t, 5, func() float64 {
		return float64(timed(1)) / float64(timed(workers))
	})
	if !uncontended && runtime.NumCPU() < 4 {
		t.Skipf("other processes held the CPUs throughout; median %.2fx not judged", speedup)
	}
	if speedup < want {
		t.Errorf("median parallel speedup %.2fx below the %.2fx floor", speedup, want)
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
	if got := (Interval{Lo: 1, Hi: 3}).Width(); got != 2 {
		t.Errorf("Width = %v", got)
	}
	if iv := PercentileInterval(nil, 0.9); iv != (Interval{}) {
		t.Errorf("empty input: %+v", iv)
	}
}

var errSentinel = errors.New("sentinel")

func TestRunErrorDoesNotCancelOthers(t *testing.T) {
	vals, errs, err := Run(8, 4, xrand.New(5), func(rep int, rng *xrand.RNG) (int, error) {
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
