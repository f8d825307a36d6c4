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

func rosenbrock(x [2]float64) float64 {
	a := 1 - x[0]
	b := x[1] - x[0]*x[0]
	return a*a + 100*b*b
}

var wideBox = Box{Lo: [2]float64{-5, -5}, Hi: [2]float64{5, 5}}

// counted wraps f with a call counter.
func counted(f func([2]float64) float64, calls *int) func([2]float64) float64 {
	return func(x [2]float64) float64 {
		*calls++
		return f(x)
	}
}

func TestMinimizeBoxRosenbrock(t *testing.T) {
	var calls int
	res, err := MinimizeBox(counted(rosenbrock, &calls), wideBox, [][2]float64{{-1.2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-6 || math.Abs(res.X[1]-1) > 1e-6 || res.F > 1e-12 {
		t.Errorf("minimizer = %v, f = %v, want (1, 1), 0", res.X, res.F)
	}
	if res.Evals != calls {
		t.Errorf("Evals = %d, objective called %d times", res.Evals, calls)
	}
	if res.Iters == 0 || res.Evals > 1000 {
		t.Errorf("%d steps, %d evaluations", res.Iters, res.Evals)
	}
}

// TestMinimizeBoxStartsFromBest: the solve starts at the best start, so
// a start in the wrong basin of a double well does not matter.
func TestMinimizeBoxStartsFromBest(t *testing.T) {
	// Minima near (−2, 0) (f ≈ −1) and (2, 0) (f ≈ −2).
	f := func(x [2]float64) float64 {
		depth := 1.0
		if x[0] > 0 {
			depth = 2
		}
		return 0.05*math.Pow(x[0]*x[0]-4, 2) - depth*math.Exp(-math.Pow(math.Abs(x[0])-2, 2)) + x[1]*x[1]
	}
	res, err := MinimizeBox(f, wideBox, [][2]float64{{-2.2, 0.3}, {2.2, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] < 0 || math.Abs(res.X[1]) > 1e-6 {
		t.Errorf("minimizer = %v, f = %v, want the deeper well at x > 0", res.X, res.F)
	}
}

// TestMinimizeBoxOptimumOnBound: a quadratic whose minimum lies outside
// the box ends on the face or the corner of the box exactly. On the face
// the free coordinate ends where the objective is within 1e-15 relative
// of the constrained minimum (3.91 at x = 0.8), which is as far as the
// objective can tell points apart.
func TestMinimizeBoxOptimumOnBound(t *testing.T) {
	unit := Box{Lo: [2]float64{0, 0}, Hi: [2]float64{1, 1}}
	// Unconstrained minimum (0.5, 3): on the face y = 1 the minimum is
	// x = 0.5 − 0.15·(1 − 3) = 0.8.
	face := func(x [2]float64) float64 {
		u, v := x[0]-0.5, x[1]-3
		return u*u + v*v + 0.3*u*v
	}
	// Unconstrained minimum (3, −2): the box minimum is the corner (1, 0).
	corner := func(x [2]float64) float64 {
		u, v := x[0]-3, x[1]+2
		return u*u + v*v + 0.5*u*v
	}
	for _, start := range [][2]float64{{0.2, 0.2}, {0.9, 0.1}, {0, 1}, {-3, 7}} {
		res, err := MinimizeBox(face, unit, [][2]float64{start})
		if err != nil {
			t.Fatal(err)
		}
		if res.X[1] != 1 || math.Abs(res.X[0]-0.8) > 1e-6 || res.F > 3.91*(1+1e-15) {
			t.Errorf("face from %v: minimizer %v, f = %.17g, want (0.8, 1) with y on the bound, f = 3.91",
				start, res.X, res.F)
		}
		res, err = MinimizeBox(corner, unit, [][2]float64{start})
		if err != nil {
			t.Fatal(err)
		}
		if res.X != [2]float64{1, 0} {
			t.Errorf("corner from %v: minimizer %v, want (1, 0) exactly", start, res.X)
		}
	}
}

// TestMinimizeBoxNaNRegion: an objective undefined (NaN) for x < 0
// inside the box. The first Newton step from far out overshoots into
// the NaN region, and a start next to it puts its stencil there; both
// solves still reach the minimum at (0.5, −1), and the objective is
// never called outside the box.
func TestMinimizeBoxNaNRegion(t *testing.T) {
	f := func(x [2]float64) float64 {
		if x[0] < -5 || x[0] > 5 || x[1] < -5 || x[1] > 5 {
			t.Fatalf("objective called outside the box at %v", x)
		}
		if x[0] < 0 {
			return math.NaN()
		}
		u, v := x[0]-0.5, x[1]+1
		return math.Sqrt(1+u*u) + math.Sqrt(1+v*v) // pseudo-Huber: Newton overshoots from afar
	}
	for _, start := range [][2]float64{{3, 2}, {1e-6, 0}} {
		res, err := MinimizeBox(f, wideBox, [][2]float64{start})
		if err != nil {
			t.Fatalf("from %v: %v", start, err)
		}
		if math.Abs(res.X[0]-0.5) > 1e-6 || math.Abs(res.X[1]+1) > 1e-6 {
			t.Errorf("from %v: minimizer %v, want (0.5, −1)", start, res.X)
		}
	}
}

// TestMinimizeBoxAllNaNObjective: an objective with no finite value at
// any start surfaces ErrNumeric, not a fake optimum, after one
// evaluation per start.
func TestMinimizeBoxAllNaNObjective(t *testing.T) {
	nan := func(x [2]float64) float64 { return math.NaN() }
	res, err := MinimizeBox(nan, wideBox, [][2]float64{{0, 0}, {1, 1}})
	if err != ErrNumeric {
		t.Errorf("err = %v, want ErrNumeric", err)
	}
	if !math.IsInf(res.F, 1) || res.Evals != 2 {
		t.Errorf("F = %v after %d evaluations, want +Inf after 2", res.F, res.Evals)
	}
}

// TestMinimizeBoxNoStarts: no starts and an empty box are rejected
// before the objective is called.
func TestMinimizeBoxNoStarts(t *testing.T) {
	var calls int
	f := counted(rosenbrock, &calls)
	if _, err := MinimizeBox(f, wideBox, nil); err == nil {
		t.Error("no starts: expected error")
	}
	empty := Box{Lo: [2]float64{0, 1}, Hi: [2]float64{1, 1}}
	if _, err := MinimizeBox(f, empty, [][2]float64{{0, 1}}); err == nil {
		t.Error("empty box: expected error")
	}
	if calls != 0 {
		t.Errorf("objective called %d times", calls)
	}
}

// TestMinimizeBoxStartAtMinimum: a start already at the minimum takes
// one stencil and stops there without moving.
func TestMinimizeBoxStartAtMinimum(t *testing.T) {
	f := func(x [2]float64) float64 { return (x[0]-1)*(x[0]-1) + 2*x[1]*x[1] + 3 }
	res, err := MinimizeBox(f, wideBox, [][2]float64{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.X != [2]float64{1, 0} || res.F != 3 || res.Iters != 0 {
		t.Errorf("moved to %v (f = %v) in %d steps, want to stay at (1, 0)", res.X, res.F, res.Iters)
	}
	if res.Evals > 10 {
		t.Errorf("%d evaluations, want one start and one stencil", res.Evals)
	}
}

// TestMinimizeBoxNoConverge: an objective finite only at the start
// leaves no finite stencil, so the solve reports ErrNoConverge and
// still returns the best point found.
func TestMinimizeBoxNoConverge(t *testing.T) {
	f := func(x [2]float64) float64 {
		if x == [2]float64{1, 1} {
			return 7
		}
		return math.NaN()
	}
	res, err := MinimizeBox(f, wideBox, [][2]float64{{1, 1}})
	if err != ErrNoConverge {
		t.Fatalf("err = %v, want ErrNoConverge", err)
	}
	if res.X != [2]float64{1, 1} || res.F != 7 {
		t.Errorf("best point %v (f = %v), want the start (1, 1), 7", res.X, res.F)
	}
}

// TestMinimizeBoxStartEdgeCases: a start with a NaN value does not keep
// the solve from a healthy one, and a start outside the box is
// projected onto it.
func TestMinimizeBoxStartEdgeCases(t *testing.T) {
	mixed := func(x [2]float64) float64 {
		if x[0] < -4 {
			return math.NaN()
		}
		return rosenbrock(x)
	}
	res, err := MinimizeBox(mixed, wideBox, [][2]float64{{-4.5, 0}, {-1.2, 1}})
	if err != nil {
		t.Fatalf("mixed starts: %v", err)
	}
	if math.Abs(res.X[0]-1) > 1e-6 || math.Abs(res.X[1]-1) > 1e-6 {
		t.Errorf("mixed starts: minimizer %v, want (1, 1)", res.X)
	}
	unit := Box{Lo: [2]float64{0, 0}, Hi: [2]float64{1, 1}}
	var outside bool
	f := func(x [2]float64) float64 {
		if x[0] < 0 || x[0] > 1 || x[1] < 0 || x[1] > 1 {
			outside = true
		}
		return (x[0]-0.25)*(x[0]-0.25) + (x[1]-0.75)*(x[1]-0.75)
	}
	res, err = MinimizeBox(f, unit, [][2]float64{{-3, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if outside {
		t.Error("objective called outside the box")
	}
	if math.Abs(res.X[0]-0.25) > 1e-6 || math.Abs(res.X[1]-0.75) > 1e-6 {
		t.Errorf("projected start: minimizer %v, want (0.25, 0.75)", res.X)
	}
}

// BenchmarkMinimizeBox solves Rosenbrock from the classic start and
// reports the objective evaluations per solve.
func BenchmarkMinimizeBox(b *testing.B) {
	var evals int
	for i := 0; i < b.N; i++ {
		res, err := MinimizeBox(rosenbrock, wideBox, [][2]float64{{-1.2, 1}})
		if err != nil {
			b.Fatal(err)
		}
		evals += res.Evals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}
