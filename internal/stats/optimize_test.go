package stats

import (
	"math"
	"testing"
)

func TestGoldenSection(t *testing.T) {
	// min of (x-1.7)^2 + 3
	got, err := GoldenSection(func(x float64) float64 { return (x-1.7)*(x-1.7) + 3 }, -10, 10, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.7) > 1e-7 {
		t.Errorf("minimizer = %v want 1.7", got)
	}
	// Reversed interval should also work.
	got, err = GoldenSection(func(x float64) float64 { return math.Abs(x + 2) }, 5, -5, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got+2) > 1e-6 {
		t.Errorf("minimizer = %v want -2", got)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	rosen := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := NelderMead(rosen, []float64{-1.2, 1}, 0.5, 1e-12, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Errorf("minimizer = %v, want (1,1); f=%v iters=%d", res.X, res.F, res.Iters)
	}
}

func TestNelderMeadQuadratic3D(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-1)*(x[0]-1) + 2*(x[1]+2)*(x[1]+2) + 0.5*(x[2]-3)*(x[2]-3)
	}
	res, err := NelderMead(f, []float64{0, 0, 0}, 1, 1e-14, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 3}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-4 {
			t.Errorf("x[%d] = %v want %v", i, res.X[i], want[i])
		}
	}
}

func TestNelderMeadHandlesNaNRegions(t *testing.T) {
	// Objective undefined (NaN) for x<0; the minimum is at x=0.5.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 0.5) * (x[0] - 0.5)
	}
	res, err := NelderMead(f, []float64{2}, 0.5, 1e-12, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-0.5) > 1e-5 {
		t.Errorf("minimizer = %v", res.X)
	}
}

func TestNelderMeadEmptyStart(t *testing.T) {
	if _, err := NelderMead(func(x []float64) float64 { return 0 }, nil, 1, 1e-9, 10); err == nil {
		t.Error("empty start: expected error")
	}
}

// TestNelderMeadDegenerateSimplex: a zero step collapses the initial
// simplex to a single point; the spread criterion must terminate the
// search immediately at the start value instead of spinning.
func TestNelderMeadDegenerateSimplex(t *testing.T) {
	calls := 0
	f := func(x []float64) float64 {
		calls++
		return (x[0]-1)*(x[0]-1) + x[1]*x[1]
	}
	res, err := NelderMead(f, []float64{3, 4}, 0, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] != 3 || res.X[1] != 4 {
		t.Errorf("degenerate simplex moved: %v", res.X)
	}
	if want := f([]float64{3, 4}); res.F != want {
		t.Errorf("F = %v, want %v", res.F, want)
	}
	if res.Iters != 0 {
		t.Errorf("degenerate simplex iterated %d times", res.Iters)
	}
	if calls > 10 {
		t.Errorf("degenerate simplex evaluated the objective %d times", calls)
	}
}

// TestNelderMeadMaxIterExhaustion: a budget too small to converge must
// report ErrNoConverge while still returning the best point found.
func TestNelderMeadMaxIterExhaustion(t *testing.T) {
	rosen := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := NelderMead(rosen, []float64{-1.2, 1}, 0.5, 1e-12, 3)
	if err != ErrNoConverge {
		t.Fatalf("err = %v, want ErrNoConverge", err)
	}
	if res.Iters != 3 {
		t.Errorf("Iters = %d, want 3", res.Iters)
	}
	if res.F > rosen([]float64{-1.2, 1}) {
		t.Errorf("best point worse than the start: %v", res.F)
	}
	if math.IsNaN(res.F) || math.IsInf(res.F, 0) {
		t.Errorf("non-finite best value %v", res.F)
	}
}

// TestNelderMeadAllNaNObjective: an objective that never returns a
// finite value must surface ErrNumeric, not a fake optimum.
func TestNelderMeadAllNaNObjective(t *testing.T) {
	f := func(x []float64) float64 { return math.NaN() }
	res, err := NelderMead(f, []float64{0, 0}, 0.5, 1e-10, 200)
	if err != ErrNumeric {
		t.Fatalf("err = %v, want ErrNumeric", err)
	}
	if !math.IsInf(res.F, 1) {
		t.Errorf("F = %v, want +Inf", res.F)
	}
}

// TestMultiStartNelderMeadEdgeCases covers the multi-start wrapper's
// degenerate inputs: no starts, all-NaN objectives, and exhausted
// budgets across every start.
func TestMultiStartNelderMeadEdgeCases(t *testing.T) {
	if _, err := MultiStartNelderMead(func(x []float64) float64 { return 0 },
		nil, 0.5, 1e-10, 100); err == nil {
		t.Error("no starts: expected error")
	}
	nan := func(x []float64) float64 { return math.NaN() }
	if _, err := MultiStartNelderMead(nan,
		[][]float64{{0, 0}, {1, 1}}, 0.5, 1e-10, 100); err != ErrNumeric {
		t.Errorf("all-NaN objective: err = %v, want ErrNumeric", err)
	}
	rosen := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := MultiStartNelderMead(rosen,
		[][]float64{{-1.2, 1}, {2, 2}}, 0.5, 1e-12, 2)
	if err != ErrNoConverge {
		t.Errorf("budget exhausted on every start: err = %v, want ErrNoConverge", err)
	}
	if math.IsInf(res.F, 0) || math.IsNaN(res.F) {
		t.Errorf("best-attempt value %v not finite", res.F)
	}
	// A NaN-poisoned start must not prevent the healthy start from
	// converging.
	mixed := func(x []float64) float64 {
		if x[0] < -5 {
			return math.NaN()
		}
		return rosen(x)
	}
	res, err = MultiStartNelderMead(mixed,
		[][]float64{{-50, 0}, {-1.2, 1}}, 0.5, 1e-10, 4000)
	if err != nil {
		t.Fatalf("mixed starts: %v", err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("mixed starts converged to %v, want (1,1)", res.X)
	}
}

func TestMultiStartPicksGlobal(t *testing.T) {
	// Double well: minima at -2 (f=-1) and +2 (f=-2). Starting near both,
	// multistart should find the deeper one.
	f := func(x []float64) float64 {
		v := x[0]
		return 0.05*math.Pow(v*v-4, 2) - map[bool]float64{true: 2, false: 1}[v > 0]*
			math.Exp(-math.Pow(math.Abs(v)-2, 2))
	}
	res, err := MultiStartNelderMead(f, [][]float64{{-2.5}, {2.5}}, 0.3, 1e-12, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] < 0 {
		t.Errorf("multistart picked the shallow minimum: x=%v f=%v", res.X, res.F)
	}
	if _, err := MultiStartNelderMead(f, nil, 0.3, 1e-9, 10); err == nil {
		t.Error("no starts: expected error")
	}
}

func BenchmarkNelderMead2D(b *testing.B) {
	f := func(x []float64) float64 {
		return (x[0]-2)*(x[0]-2) + (x[1]+1)*(x[1]+1)
	}
	for i := 0; i < b.N; i++ {
		if _, err := NelderMead(f, []float64{0, 0}, 1, 1e-10, 500); err != nil {
			b.Fatal(err)
		}
	}
}
