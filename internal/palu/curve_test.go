package palu_test

import (
	"fmt"
	"math"
	"testing"

	"hybridplaw/internal/experiments"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/specialfn"
	"hybridplaw/internal/zipfmand"
)

func TestCurveValidate(t *testing.T) {
	good := []palu.Curve{{2, -0.5, 1.2}, {1.1, -0.9, 5}, {2.9, -0.8, 200}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", c, err)
		}
	}
	bad := []palu.Curve{{0, -0.5, 2}, {2, -1, 2}, {2, -0.5, 1}, {2, -0.5, 0.5},
		{math.NaN(), 0, 2}, {math.Inf(1), 0, 2}}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v): expected error", c)
		}
	}
}

func TestUOverCBridge(t *testing.T) {
	// u/c = (1+δ)^{−α} − 1 must be positive for δ<0 and zero at δ=0.
	if got := (palu.Curve{Alpha: 2, Delta: 0, R: 2}).UOverC(); math.Abs(got) > 1e-15 {
		t.Errorf("UOverC(delta=0) = %v", got)
	}
	c := palu.Curve{Alpha: 2, Delta: -0.5, R: 2}
	want := math.Pow(0.5, -2) - 1 // = 3
	if got := c.UOverC(); math.Abs(got-want) > 1e-12 {
		t.Errorf("UOverC = %v want %v", got, want)
	}
}

func TestCurveMatchesZMAtDegreeOne(t *testing.T) {
	// Unnormalized PALU(1) = 1 + u/c = (1+δ)^{−α} = ZM(1) for every r.
	for _, delta := range []float64{-0.8, -0.5, -0.2, 0.3} {
		for _, r := range []float64{1.01, 1.5, 5, 50} {
			c := palu.Curve{Alpha: 2.2, Delta: delta, R: r}
			zm := zipfmand.Model{Alpha: 2.2, Delta: delta}
			if math.Abs(c.Eval(1)-zm.Rho(1)) > 1e-12 {
				t.Errorf("delta=%v r=%v: PALU(1)=%v ZM(1)=%v", delta, r, c.Eval(1), zm.Rho(1))
			}
		}
	}
}

func TestCurveTailIsPowerLaw(t *testing.T) {
	// For large d the geometric term vanishes: PALU(d) → d^{−α}.
	c := palu.Curve{Alpha: 2.5, Delta: -0.75, R: 1.8}
	for _, d := range []int{100, 1000, 10000} {
		want := math.Pow(float64(d), -c.Alpha)
		got := c.Eval(d)
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("d=%d: PALU=%v power=%v", d, got, want)
		}
	}
}

// TestCurvePMFNormalized: the normalized curve, pooled, has mass 1 and
// no negative bin.
func TestCurvePMFNormalized(t *testing.T) {
	c := palu.Curve{Alpha: 2, Delta: -0.75, R: 1.8}
	pmf, err := c.PooledD(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range pmf {
		if p < 0 {
			t.Fatal("negative pmf value")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("pmf sums to %v", sum)
	}
}

func TestCurvePMFErrors(t *testing.T) {
	if _, err := (palu.Curve{Alpha: 2, Delta: -0.5, R: 0.5}).PooledD(100); err == nil {
		t.Error("invalid r: expected error")
	}
	if _, err := (palu.Curve{Alpha: 2, Delta: -0.5, R: 2}).PooledD(0); err == nil {
		t.Error("dmax=0: expected error")
	}
	// delta > 0 makes u/c negative; PALU(d) can go negative for small r.
	const negText = "palu: PALU(2) = -0.4658333561888045 not a density (delta 0.9 gives negative star weight)"
	if _, err := (palu.Curve{Alpha: 2, Delta: 0.9, R: 1.01}).PooledD(1000); err == nil || err.Error() != negText {
		t.Errorf("negative density: error %v, want %q", err, negText)
	}
}

func TestCurveRejectsInfiniteUOverC(t *testing.T) {
	// (1+δ)^{−α} overflows, so u/c = +Inf and Eq. (5) is Inf or NaN at
	// every d. The check names u/c, at any dmax, instead of returning a
	// NaN curve (dmax 1000) or blaming a negative star weight (dmax 4096).
	c := palu.Curve{Alpha: 200, Delta: -0.99999, R: 2}
	const want = "palu: u/c = (1+delta)^-alpha - 1 = +Inf is not finite (alpha 200, delta -0.99999)"
	for _, dmax := range []int{1000, 4096} {
		if pd, err := c.PooledD(dmax); err == nil || err.Error() != want {
			t.Errorf("PooledD(%d) = %v, %v; want error %q", dmax, pd[:min(len(pd), 3)], err, want)
		}
	}
}

func TestCurveDensityCheckMatchesScan(t *testing.T) {
	// The density check evaluates PALU(d) near d* = α/ln r and bisects;
	// it must name the same first negative degree as a scan over every d
	// (refPMF), or pass where the scan passes.
	var failing, passing int
	for _, alpha := range []float64{1.1, 2, 2.9} {
		for _, r := range []float64{1.0001, 1.001, 1.01, 1.05, 1.2, 1.5, 2, 5, 50} {
			deltas := []float64{0.05, 0.3, 0.9, 3, 40}
			// Also δ just past the onset of negativity, where the run of
			// negative degrees around d* = α/ln r is a few degrees wide
			// or narrower than one: −ln|u/c| = g(d*) − w.
			peak := alpha / math.Log(r)
			gPeak := alpha*math.Log(peak) - (peak-1)*math.Log(r)
			for _, w := range []float64{1e-2, 1e-4, 1e-6} {
				if peak >= 2 && gPeak > w {
					deltas = append(deltas, math.Pow(-math.Expm1(-(gPeak-w)), -1/alpha)-1)
				}
			}
			for _, delta := range deltas {
				for _, dmax := range []int{1, 2, 1000, 1 << 16} {
					c := palu.Curve{Alpha: alpha, Delta: delta, R: r}
					_, wantErr := refPMF(c, dmax)
					_, err := c.PooledD(dmax)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Errorf("%+v dmax=%d: error %v, want %v", c, dmax, err, wantErr)
					}
					if wantErr != nil {
						failing++
					} else {
						passing++
					}
				}
			}
		}
	}
	// Huge α, where d^{−α} and, past some degree, r^{(1−d)}·u/c round
	// to 0, so floating point cuts the run of negative degrees short.
	for _, c := range []palu.Curve{{1000, 0.5, 2}, {800, 1e-3, 1.5}, {300, 0.01, 1.0001}, {750, 0.2, 1.0001}} {
		_, wantErr := refPMF(c, 4096)
		if _, err := c.PooledD(4096); fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%+v dmax=4096: error %v, want %v", c, err, wantErr)
		}
	}
	t.Logf("%d cases fail the check, %d pass", failing, passing)
	// The grid must exercise both outcomes.
	if failing == 0 || passing == 0 {
		t.Errorf("grid has %d failing and %d passing cases; want both", failing, passing)
	}
}

func TestCurvePooledMass(t *testing.T) {
	c := palu.Curve{Alpha: 2.9, Delta: -0.8, R: 5}
	pd, err := c.PooledD(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for _, v := range pd {
		mass += v
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("pooled mass = %v", mass)
	}
}

func TestFigure4FamiliesApproachZM(t *testing.T) {
	// E-F4 shape check: for each Fig. 4 panel, some r in the printed
	// family brings the pooled PALU curve within a modest log distance of
	// the pooled ZM curve ("the PALU model can be made to fit a
	// Zipf-Mandlebrot distribution ... by varying r").
	const dmax = 1 << 16
	for _, panel := range experiments.Figure4Spec() {
		zm := zipfmand.Model{Alpha: panel.Alpha, Delta: panel.Delta}
		zmD, err := zm.PooledD(dmax)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for _, r := range panel.Rs {
			c := palu.Curve{Alpha: panel.Alpha, Delta: panel.Delta, R: r}
			pd, err := c.PooledD(dmax)
			if err != nil {
				t.Fatalf("panel α=%v r=%v: %v", panel.Alpha, r, err)
			}
			var worst float64
			for i := range pd {
				if zmD[i] <= 0 || pd[i] <= 0 {
					continue
				}
				diff := math.Abs(math.Log10(pd[i]) - math.Log10(zmD[i]))
				if diff > worst {
					worst = diff
				}
			}
			if worst < best {
				best = worst
			}
		}
		// Within half a decade across all bins for the best family member.
		if best > 0.5 {
			t.Errorf("panel α=%v δ=%v: best sup log10 distance %v", panel.Alpha, panel.Delta, best)
		}
	}
}

func TestDeltaFromObservationRoundTrip(t *testing.T) {
	// (1+δ)^{−α} − 1 must equal u/c for the same observation.
	params, err := palu.FromWeights(2, 1, 1, 3, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	o, err := palu.NewObservation(params, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := palu.DeltaFromObservation(o)
	if err != nil {
		t.Fatal(err)
	}
	// u/c = (U/C) e^{−λp} ζ(α) p^{−α}, the left side of the bridge.
	uc := (o.Params.U / o.Params.C) * math.Exp(-o.Mu()) * specialfn.MustZeta(o.Alpha) * math.Pow(o.P, -o.Alpha)
	lhs := math.Pow(1+delta, -o.Alpha) - 1
	if math.Abs(lhs-uc) > 1e-10*(1+uc) {
		t.Errorf("bridge mismatch: (1+δ)^{−α}−1 = %v, u/c = %v", lhs, uc)
	}
	// More stars (larger U) must push delta more negative (heavier d=1).
	params2, err := palu.FromWeights(2, 1, 3, 3, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := palu.NewObservation(params2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	delta2, err := palu.DeltaFromObservation(o2)
	if err != nil {
		t.Fatal(err)
	}
	if delta2 >= delta {
		t.Errorf("delta should decrease with U: %v -> %v", delta, delta2)
	}
}

func TestDeltaFromObservationErrors(t *testing.T) {
	params, _ := palu.FromWeights(0, 1, 1, 2, 2)
	o, _ := palu.NewObservation(params, 0.5)
	if _, err := palu.DeltaFromObservation(o); err == nil {
		t.Error("C=0: expected error")
	}
	params2, _ := palu.FromWeights(1, 1, 1, 2, 2)
	o2, _ := palu.NewObservation(params2, 0)
	if _, err := palu.DeltaFromObservation(o2); err == nil {
		t.Error("p=0: expected error")
	}
}

// refPMF and refPooledD are the Fig. 4 curve as it was evaluated before
// the closed forms: Eq. (5) summed term by term over every degree, a
// stored PMF, then the binary-log pool. The scan in refPMF is the density
// check the closed-form check must agree with.
func refPMF(c palu.Curve, dmax int) ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if dmax < 1 {
		return nil, fmt.Errorf("palu: dmax must be >= 1")
	}
	out := make([]float64, dmax)
	var z float64
	for d := 1; d <= dmax; d++ {
		v := math.Pow(float64(d), -c.Alpha) + math.Pow(c.R, float64(1-d))*c.UOverC()
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("palu: PALU(%d) = %v not a density (delta %v gives negative star weight)", d, v, c.Delta)
		}
		out[d-1] = v
		z += v
	}
	for i := range out {
		out[i] /= z
	}
	return out, nil
}

func refPooledD(c palu.Curve, dmax int) ([]float64, error) {
	pmf, err := refPMF(c, dmax)
	if err != nil {
		return nil, err
	}
	out := make([]float64, hist.BinIndex(dmax)+1)
	for d := 1; d <= dmax; d++ {
		out[hist.BinIndex(d)] += pmf[d-1]
	}
	return out, nil
}

// neumaier is a Kahan–Babuška (Neumaier) compensated running sum.
type neumaier struct{ sum, comp float64 }

func (n *neumaier) add(x float64) {
	t := n.sum + x
	if math.Abs(n.sum) >= math.Abs(x) {
		n.comp += (n.sum - t) + x
	} else {
		n.comp += (x - t) + n.sum
	}
	n.sum = t
}

func (n *neumaier) value() float64 { return n.sum + n.comp }

// compensatedPooledD is the pooled curve summed term by term with
// compensated bin sums and normalizer: accurate to a few ulps per bin, so
// it measures the closed forms' error rather than its own. pow holds
// d^{−α} for d = 1..dmax.
func compensatedPooledD(c palu.Curve, pow []float64) []float64 {
	uc := c.UOverC()
	bins := make([]neumaier, hist.BinIndex(len(pow))+1)
	var z neumaier
	for i, p := range pow {
		v := p + math.Pow(c.R, float64(-i))*uc
		bins[hist.BinIndex(i+1)].add(v)
		z.add(v)
	}
	out := make([]float64, len(bins))
	for i := range bins {
		out[i] = bins[i].value() / z.value()
	}
	return out
}

// maxRelErr returns the largest per-bin |got − want|/want.
func maxRelErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var worst float64
	for i := range want {
		if e := math.Abs(got[i]-want[i]) / want[i]; !(e <= worst) {
			worst = e
		}
	}
	return worst
}

func TestFigure4CurvesWithinTolerance(t *testing.T) {
	// Every Fig. 4 curve against a compensated term-by-term sum. The
	// α = 1.1 panel (Euler–Maclaurin close to s = 1) and the α = 2.5
	// panel run the paper's full 2^20 range; the others run 2^16.
	const tolCompensated, tolDirect, tolMass = 1e-13, 1e-10, 1e-12
	for _, panel := range experiments.Figure4Spec() {
		dmax := 1 << 16
		if panel.Alpha == 1.1 || panel.Alpha == 2.5 {
			dmax = 1 << 20
		}
		pow := make([]float64, dmax)
		for i := range pow {
			pow[i] = math.Pow(float64(i+1), -panel.Alpha)
		}
		var worst, worstDirect float64
		for _, r := range panel.Rs {
			c := palu.Curve{Alpha: panel.Alpha, Delta: panel.Delta, R: r}
			got, err := c.PooledD(dmax)
			if err != nil {
				t.Fatalf("%+v: %v", c, err)
			}
			e := maxRelErr(got, compensatedPooledD(c, pow))
			if e > tolCompensated {
				t.Errorf("%+v dmax=%d: per-bin relative error %.3g against the compensated sum, want <= %g", c, dmax, e, tolCompensated)
			}
			worst = max(worst, e)
			full, err := c.PooledD(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			var mass float64
			for _, v := range full {
				mass += v
			}
			if math.Abs(mass-1) > tolMass {
				t.Errorf("%+v: pooled mass %v", c, mass)
			}
			// The term-by-term sum these curves replaced.
			for _, small := range []int{1, 2, 1000} {
				want, err := refPooledD(c, small)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.PooledD(small)
				if err != nil {
					t.Fatal(err)
				}
				e := maxRelErr(got, want)
				if e > tolDirect {
					t.Errorf("%+v dmax=%d: PooledD relative error %.3g against the direct sum", c, small, e)
				}
				worstDirect = max(worstDirect, e)
			}
		}
		t.Logf("α=%v: worst per-bin relative error %.2g against the compensated sum (dmax %d), %.2g against the direct sum (dmax <= 1000)",
			panel.Alpha, worst, dmax, worstDirect)
	}
}

func BenchmarkCurvePooledD(b *testing.B) {
	// α = 1.1, r = 1.01 kept the term-by-term sum's star term nonzero the
	// longest of every Fig. 4 curve (to d ≈ 75k).
	for _, c := range []palu.Curve{{Alpha: 2, Delta: -0.75, R: 3}, {Alpha: 1.1, Delta: -0.5, R: 1.01}} {
		b.Run(fmt.Sprintf("alpha=%v/r=%v", c.Alpha, c.R), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.PooledD(1 << 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
