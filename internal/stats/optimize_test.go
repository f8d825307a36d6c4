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

// rosenbrock is (1−x)² + 100(y−x²)² with its exact derivatives.
func rosenbrock(x [2]float64) Jet {
	a := 1 - x[0]
	b := x[1] - x[0]*x[0]
	return Jet{
		F: a*a + 100*b*b,
		G: [2]float64{-2*a - 400*x[0]*b, 200 * b},
		H: [2][2]float64{{2 - 400*b + 800*x[0]*x[0], -400 * x[0]}, {-400 * x[0], 200}},
	}
}

// quadratic returns the oracle of f0 + ½(x−c)ᵀH(x−c).
func quadratic(c [2]float64, H [2][2]float64, f0 float64) Oracle {
	return func(x [2]float64) Jet {
		d := [2]float64{x[0] - c[0], x[1] - c[1]}
		j := Jet{F: f0, H: H}
		for i := range d {
			j.G[i] = H[i][0]*d[0] + H[i][1]*d[1]
			j.F += 0.5 * d[i] * j.G[i]
		}
		return j
	}
}

var wideBox = Box{Lo: [2]float64{-5, -5}, Hi: [2]float64{5, 5}}

// counted wraps f with a call counter.
func counted(f Oracle, calls *int) Oracle {
	return func(x [2]float64) Jet {
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
		t.Errorf("Evals = %d, oracle called %d times", res.Evals, calls)
	}
	if res.Iters == 0 || res.Evals > 1000 {
		t.Errorf("%d steps, %d oracle calls", res.Iters, res.Evals)
	}
	if want := rosenbrock(res.X).H; res.H != want {
		t.Errorf("H = %v, want the Hessian at the minimizer %v", res.H, want)
	}
}

// TestMinimizeBoxStartsFromBest: the solve starts at the best start, so
// a start in the wrong basin of a double well does not matter.
func TestMinimizeBoxStartsFromBest(t *testing.T) {
	// 0.05(x²−4)² − depth·exp(−(|x|−2)²) + y²: minima near (−2, 0)
	// (f ≈ −1) and (2, 0) (f ≈ −2).
	f := func(x [2]float64) Jet {
		depth := 1.0
		if x[0] > 0 {
			depth = 2
		}
		sign := math.Copysign(1, x[0])
		r := math.Abs(x[0]) - 2
		e := depth * math.Exp(-r*r)
		q := x[0]*x[0] - 4
		return Jet{
			F: 0.05*q*q - e + x[1]*x[1],
			G: [2]float64{0.2*x[0]*q + 2*r*sign*e, 2 * x[1]},
			H: [2][2]float64{{0.2*(3*x[0]*x[0]-4) + (2-4*r*r)*e, 0}, {0, 2}},
		}
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
	// u² + v² + 0.3uv around the unconstrained minimum (0.5, 3): on the
	// face y = 1 the minimum is x = 0.5 − 0.15·(1 − 3) = 0.8.
	face := quadratic([2]float64{0.5, 3}, [2][2]float64{{2, 0.3}, {0.3, 2}}, 0)
	// u² + v² + 0.5uv around the unconstrained minimum (3, −2): the box
	// minimum is the corner (1, 0).
	corner := quadratic([2]float64{3, -2}, [2][2]float64{{2, 0.5}, {0.5, 2}}, 0)
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
// the NaN region, and a start next to it takes its first step from the
// region's edge; both solves still reach the minimum at (0.5, −1), and
// the oracle is never called outside the box.
func TestMinimizeBoxNaNRegion(t *testing.T) {
	f := func(x [2]float64) Jet {
		if x[0] < -5 || x[0] > 5 || x[1] < -5 || x[1] > 5 {
			t.Fatalf("oracle called outside the box at %v", x)
		}
		if x[0] < 0 {
			return Jet{F: math.NaN()}
		}
		// Pseudo-Huber √(1+u²) + √(1+v²): Newton overshoots from afar.
		var j Jet
		for i, u := range [2]float64{x[0] - 0.5, x[1] + 1} {
			r := math.Sqrt(1 + u*u)
			j.F += r
			j.G[i] = u / r
			j.H[i][i] = 1 / (r * r * r)
		}
		return j
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
// any start surfaces ErrNumeric, not a fake optimum, after one oracle
// call per start.
func TestMinimizeBoxAllNaNObjective(t *testing.T) {
	nan := func(x [2]float64) Jet { return Jet{F: math.NaN()} }
	res, err := MinimizeBox(nan, wideBox, [][2]float64{{0, 0}, {1, 1}})
	if err != ErrNumeric {
		t.Errorf("err = %v, want ErrNumeric", err)
	}
	if !math.IsInf(res.F, 1) || res.Evals != 2 {
		t.Errorf("F = %v after %d oracle calls, want +Inf after 2", res.F, res.Evals)
	}
}

// TestMinimizeBoxNoStarts: no starts and an empty box are rejected
// before the oracle is called.
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
		t.Errorf("oracle called %d times", calls)
	}
}

// TestMinimizeBoxStartAtMinimum: a start already at the minimum takes
// one oracle call and stops there without moving, with that call's
// Hessian.
func TestMinimizeBoxStartAtMinimum(t *testing.T) {
	H := [2][2]float64{{2, 0}, {0, 4}} // (x−1)² + 2y² + 3
	res, err := MinimizeBox(quadratic([2]float64{1, 0}, H, 3), wideBox, [][2]float64{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.X != [2]float64{1, 0} || res.F != 3 || res.Iters != 0 || res.H != H {
		t.Errorf("moved to %v (f = %v, H = %v) in %d steps, want to stay at (1, 0) with H = %v",
			res.X, res.F, res.H, res.Iters, H)
	}
	if res.Evals != 1 {
		t.Errorf("%d oracle calls, want the start's one", res.Evals)
	}
}

// TestMinimizeBoxNoConverge: an objective finite only at the start has
// no finite derivatives there, so the solve reports ErrNoConverge and
// still returns the best point found.
func TestMinimizeBoxNoConverge(t *testing.T) {
	f := func(x [2]float64) Jet {
		if x == [2]float64{1, 1} {
			nan := math.NaN()
			return Jet{F: 7, G: [2]float64{nan, nan}, H: [2][2]float64{{nan, nan}, {nan, nan}}}
		}
		return Jet{F: math.NaN()}
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
	mixed := func(x [2]float64) Jet {
		if x[0] < -4 {
			return Jet{F: math.NaN()}
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
	bowl := quadratic([2]float64{0.25, 0.75}, [2][2]float64{{2, 0}, {0, 2}}, 0)
	f := func(x [2]float64) Jet {
		if x[0] < 0 || x[0] > 1 || x[1] < 0 || x[1] > 1 {
			outside = true
		}
		return bowl(x)
	}
	res, err = MinimizeBox(f, unit, [][2]float64{{-3, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if outside {
		t.Error("oracle called outside the box")
	}
	if math.Abs(res.X[0]-0.25) > 1e-6 || math.Abs(res.X[1]-0.75) > 1e-6 {
		t.Errorf("projected start: minimizer %v, want (0.25, 0.75)", res.X)
	}
}

// TestJetAlgebra: Log and Div against the closed forms of ln(x²y) and
// x/y at (2, 3).
func TestJetAlgebra(t *testing.T) {
	x, y := 2.0, 3.0
	num := Jet{F: x * x * y, G: [2]float64{2 * x * y, x * x}, H: [2][2]float64{{2 * y, 2 * x}, {2 * x, 0}}}
	lg := num.Log()
	wantLog := Jet{F: math.Log(x * x * y), G: [2]float64{2 / x, 1 / y}, H: [2][2]float64{{-2 / (x * x), 0}, {0, -1 / (y * y)}}}
	q := Jet{F: x, G: [2]float64{1, 0}}.Div(Jet{F: y, G: [2]float64{0, 1}})
	wantQ := Jet{F: x / y, G: [2]float64{1 / y, -x / (y * y)}, H: [2][2]float64{{0, -1 / (y * y)}, {-1 / (y * y), 2 * x / (y * y * y)}}}
	for _, c := range []struct {
		name      string
		got, want Jet
	}{{"log", lg, wantLog}, {"div", q, wantQ}} {
		d := c.got.Sub(c.want)
		for _, v := range []float64{d.F, d.G[0], d.G[1], d.H[0][0], d.H[0][1], d.H[1][0], d.H[1][1]} {
			if math.Abs(v) > 1e-15 {
				t.Errorf("%s: got %+v, want %+v", c.name, c.got, c.want)
				break
			}
		}
	}
}

// BenchmarkMinimizeBox solves Rosenbrock from the classic start and
// reports the oracle calls per solve.
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
