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
		{math.NaN(), 0, 2}}
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

func TestCurvePMFNormalized(t *testing.T) {
	c := palu.Curve{Alpha: 2, Delta: -0.75, R: 1.8}
	pmf, err := c.PMF(1 << 12)
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
	if _, err := (palu.Curve{Alpha: 2, Delta: -0.5, R: 0.5}).PMF(100); err == nil {
		t.Error("invalid r: expected error")
	}
	if _, err := (palu.Curve{Alpha: 2, Delta: -0.5, R: 2}).PMF(0); err == nil {
		t.Error("dmax=0: expected error")
	}
	// delta > 0 makes u/c negative; PALU(d) can go negative for small r.
	const negText = "palu: PALU(2) = -0.4658333561888045 not a density (delta 0.9 gives negative star weight)"
	if _, err := (palu.Curve{Alpha: 2, Delta: 0.9, R: 1.01}).PMF(1000); err == nil || err.Error() != negText {
		t.Errorf("negative density: error %v, want %q", err, negText)
	}
	if _, err := (palu.Curve{Alpha: 2, Delta: 0.9, R: 1.01}).PooledD(1000); err == nil || err.Error() != negText {
		t.Errorf("negative density (pooled): error %v, want %q", err, negText)
	}
	if _, err := palu.PooledFamily(2, 0.9, []float64{1.01}, 1000); err == nil || err.Error() != "r=1.01: "+negText {
		t.Errorf("negative density (family): error %v, want r=1.01: %q", err, negText)
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
	panels := []struct {
		alpha, delta float64
		rs           []float64
	}{
		{1.1, -0.5, []float64{1.01, 1.1, 1.2, 1.4, 1.8, 2, 3, 5}},
		{1.5, -0.6, []float64{1.01, 1.1, 1.2, 1.5, 2, 4, 11}},
		{2.0, -0.75, []float64{1.05, 1.2, 1.8, 3, 6, 12, 35}},
		{2.5, -0.75, []float64{1.01, 1.05, 1.2, 1.8, 5, 20, 70}},
		{2.9, -0.8, []float64{1.01, 1.05, 1.2, 1.8, 5, 30, 200}},
	}
	const dmax = 1 << 16
	for _, panel := range panels {
		zm := zipfmand.Model{Alpha: panel.alpha, Delta: panel.delta}
		zmD, err := zm.PooledD(dmax)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for _, r := range panel.rs {
			c := palu.Curve{Alpha: panel.alpha, Delta: panel.delta, R: r}
			pd, err := c.PooledD(dmax)
			if err != nil {
				t.Fatalf("panel α=%v r=%v: %v", panel.alpha, r, err)
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
			t.Errorf("panel α=%v δ=%v: best sup log10 distance %v", panel.alpha, panel.delta, best)
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
// the shared d^{−α} table: Eq. (5) with three Pow calls per degree, a
// stored PMF, then the binary-log pool. PMF, PooledD and PooledFamily
// must match them bit for bit.
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

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkFamily asserts PooledFamily, PooledD and PMF against the
// references for every r of one (α, δ) family at dmax.
func checkFamily(t *testing.T, alpha, delta float64, rs []float64, dmax int, withPMF bool) {
	t.Helper()
	family, err := palu.PooledFamily(alpha, delta, rs, dmax)
	if err != nil {
		t.Fatalf("α=%v δ=%v dmax=%d: %v", alpha, delta, dmax, err)
	}
	for i, r := range rs {
		c := palu.Curve{Alpha: alpha, Delta: delta, R: r}
		want, err := refPooledD(c, dmax)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(family[i], want) {
			t.Errorf("%+v dmax=%d: PooledFamily differs from the reference", c, dmax)
		}
		got, err := c.PooledD(dmax)
		if err != nil || !sameBits(got, want) {
			t.Errorf("%+v dmax=%d: PooledD differs from the reference (err %v)", c, dmax, err)
		}
		if !withPMF {
			continue
		}
		wantPMF, err := refPMF(c, dmax)
		if err != nil {
			t.Fatal(err)
		}
		gotPMF, err := c.PMF(dmax)
		if err != nil || !sameBits(gotPMF, wantPMF) {
			t.Errorf("%+v dmax=%d: PMF differs from the reference (err %v)", c, dmax, err)
		}
	}
}

func TestFigure4CurvesBitIdentical(t *testing.T) {
	for _, panel := range experiments.Figure4Spec() {
		for _, dmax := range []int{1, 2, 1000} {
			checkFamily(t, panel.Alpha, panel.Delta, panel.Rs, dmax, true)
		}
	}
	// r = 1e4 drives the star term r^{(1−d)} to exactly 0 by d ≈ 82, so
	// most degrees take the no-Pow path.
	if s := math.Pow(1e4, -99); s != 0 {
		t.Fatalf("star term at d=100 is %v, want 0", s)
	}
	checkFamily(t, 2.9, -0.8, []float64{1e4, 2000}, 1000, true)
	checkFamily(t, 1.5, -0.6, []float64{1e4}, 1<<12, true)
	// One full paper-range panel. Its r = 1.01 keeps the star term nonzero
	// the longest (to d ≈ 75k) of every Fig. 4 curve.
	panel := experiments.Figure4Spec()[0]
	checkFamily(t, panel.Alpha, panel.Delta, panel.Rs, 1<<20, false)
}

func TestFigure4StarTermStaysZero(t *testing.T) {
	// The no-Pow path assumes that once r^{(1−d)} rounds to 0 it stays 0
	// for every larger d. Check it over the paper's whole degree range for
	// every Fig. 4 r that the full-range pin above does not already cover.
	const dmax = 1 << 20
	panels := experiments.Figure4Spec()
	seen := map[float64]bool{}
	for _, r := range panels[0].Rs {
		seen[r] = true
	}
	for _, panel := range panels[1:] {
		for _, r := range panel.Rs {
			if seen[r] {
				continue
			}
			seen[r] = true
			d := 1
			for ; d <= dmax && math.Pow(r, float64(1-d)) != 0; d++ {
			}
			for ; d <= dmax; d++ {
				if s := math.Pow(r, float64(1-d)); s != 0 {
					t.Fatalf("r=%v: star term %v at d=%d after it reached 0", r, s, d)
				}
			}
		}
	}
}

func BenchmarkCurvePooledD(b *testing.B) {
	c := palu.Curve{Alpha: 2, Delta: -0.75, R: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PooledD(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
}
