package testenv

import (
	"slices"
	"testing"
	"time"
)

func TestMiddle(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	if got := middle(xs); got != 3 {
		t.Errorf("middle(%v) = %v, want 3", xs, got)
	}
	if !slices.Equal(xs, []float64{3, 1, 2, 5, 4}) {
		t.Errorf("middle reordered its input: %v", xs)
	}
}

// TestMedianSpeedupReturnsPairRatio runs pairs that sleep instead of
// spinning, so whether or not another process holds the CPUs, every
// pair reports the same ratio and that ratio comes back.
func TestMedianSpeedupReturnsPairRatio(t *testing.T) {
	pairs := 0
	got, _ := MedianSpeedup(t, 3, func() float64 {
		pairs++
		time.Sleep(50 * time.Millisecond)
		return 1.5
	})
	if got != 1.5 || pairs < 3 {
		t.Errorf("MedianSpeedup = %v after %d pairs, want 1.5 after at least 3", got, pairs)
	}
}

func TestRunDelayReadable(t *testing.T) {
	d, ok := runDelay()
	if !ok {
		t.Skip("no per-thread schedstat on this kernel")
	}
	if d < 0 {
		t.Errorf("run delay %v < 0", d)
	}
}
