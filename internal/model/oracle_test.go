package model

import (
	"math"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/stats"
)

// richardson returns the Richardson-extrapolated central differences of
// the oracle f at x with steps h along the axes in axes: the gradient
// entries from its values and the Hessian's columns from its gradients.
func richardson(f stats.Oracle, x, h [2]float64, axes ...int) (g [2]float64, H [2][2]float64) {
	for _, i := range axes {
		diff := func(step float64) (df float64, dg [2]float64) {
			xp, xm := x, x
			xp[i] += step
			xm[i] -= step
			p, m := f(xp), f(xm)
			for k := range dg {
				dg[k] = (p.G[k] - m.G[k]) / (2 * step)
			}
			return (p.F - m.F) / (2 * step), dg
		}
		f1, g1 := diff(h[i])
		f2, g2 := diff(h[i] / 2)
		g[i] = (4*f2 - f1) / 3
		for k := range g1 {
			H[k][i] = (4*g2[k] - g1[k]) / 3
		}
	}
	return g, H
}

// jetError returns the largest difference between the oracle's
// gradient and Hessian at x and their Richardson differences along
// axes, relative to the largest entry of each.
func jetError(f stats.Oracle, x, h [2]float64, axes ...int) (eg, eH float64) {
	j := f(x)
	g, H := richardson(f, x, h, axes...)
	var sg, sH float64
	for i := range j.G {
		sg = math.Max(sg, math.Abs(j.G[i]))
		for k := range j.H[i] {
			sH = math.Max(sH, math.Abs(j.H[i][k]))
		}
	}
	for _, i := range axes {
		eg = math.Max(eg, math.Abs(j.G[i]-g[i])/sg)
		for k := range H {
			eH = math.Max(eH, math.Abs(j.H[k][i]-H[k][i])/sH)
		}
	}
	return eg, eH
}

// oracleHistogram is a heavy-tailed histogram on 1..20000: every degree
// up to 60 and a sparse tail, so truncplaw's normalizer runs its
// Simpson tail (dmax > 4096) and zm-mle's takes the Hurwitz path at
// α > 1.02.
func oracleHistogram(t *testing.T) *hist.Histogram {
	t.Helper()
	counts := map[int]int64{100: 7, 700: 3, 5000: 2, 20000: 1}
	for d := 1; d <= 60; d++ {
		counts[d] = int64(1e6*math.Pow(float64(d)+0.5, -2.2)) + 1
	}
	h, err := hist.FromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestOracleDerivs: each likelihood oracle's value is −LogLik of its
// family's model bit for bit, and its gradient and Hessian agree with a
// Richardson central difference to 1e-7 of their largest entry:
//
//   - zm-mle on the direct path (α ≤ 1.02) and the Hurwitz path, δ on
//     both sides of 0;
//   - truncplaw at λ > 0; at λ = 0 the α-column is differenced, and the
//     λ-column, one-sided there, must match the λ → 0+ limit (the
//     oracle at λ = 1e-13);
//   - lognormal with cells on both branches of stdNormalCDFDiff, and at
//     μ = −40, where every cell is on the upper-tail branch.
func TestOracleDerivs(t *testing.T) {
	const tol = 1e-7
	h := oracleHistogram(t)
	cases := []struct {
		fitter Fitter
		xs     [][2]float64
		step   [2]float64
	}{
		{ZMMLEFitter{}, [][2]float64{{0.9, -0.5}, {1.01, 0.4}, {1.6, -0.7}, {2.2, 0}, {3.1, 5}}, [2]float64{1e-4, 1e-4}},
		{TruncPowerLawFitter{}, [][2]float64{{1.5, 1e-3}, {2.2, 0.02}, {0.8, 0.3}}, [2]float64{1e-4, 1e-5}},
		{LognormalFitter{}, [][2]float64{{1.2, 1}, {-1.3, 1.4}, {-40, 5.5}, {-40, 2}}, [2]float64{1e-4, 1e-4}},
	}
	var worstG, worstH float64
	for _, c := range cases {
		p, _ := problemOf(c.fitter, h)
		for _, x := range c.xs {
			ll, err := p.model(x).LogLik(h)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.oracle(x).F; math.Float64bits(got) != math.Float64bits(-ll) {
				t.Errorf("%s at %v: oracle value %.17g, −LogLik %.17g", c.fitter.Name(), x, got, -ll)
			}
			eg, eH := jetError(p.oracle, x, c.step, 0, 1)
			worstG, worstH = math.Max(worstG, eg), math.Max(worstH, eH)
			if eg > tol || eH > tol {
				t.Errorf("%s at %v: gradient %.2g, Hessian %.2g from the difference", c.fitter.Name(), x, eg, eH)
			}
		}
	}
	t.Logf("largest relative difference: gradient %.2g, Hessian %.2g", worstG, worstH)

	trunc, _ := problemOf(TruncPowerLawFitter{}, h)
	for _, alpha := range []float64{0.8, 1.01, 1.9, 3.2} {
		x := [2]float64{alpha, 0}
		if eg, eH := jetError(trunc.oracle, x, [2]float64{1e-4, 0}, 0); eg > tol || eH > tol {
			t.Errorf("truncplaw at %v: α-gradient %.2g, α-column of the Hessian %.2g from the difference", x, eg, eH)
		}
		j, near := trunc.oracle(x), trunc.oracle([2]float64{alpha, 1e-13})
		for _, d := range [][2]float64{{j.G[1], near.G[1]}, {j.H[1][1], near.H[1][1]}, {j.H[0][1], near.H[0][1]}} {
			if math.Abs(d[0]-d[1]) > tol*math.Abs(d[1]) {
				t.Errorf("truncplaw at %v: λ-derivative %v, %v at λ = 1e-13", x, d[0], d[1])
			}
		}
	}
}

// TestNormalCellJetBranches: normalCellJet's value is stdNormalCDFDiff's
// on both of its branches, and far in the upper tail, where the cell
// mass is ~1e-300, ln P's derivatives stay finite and agree with a
// Richardson difference.
func TestNormalCellJetBranches(t *testing.T) {
	for _, c := range [][3]float64{{-1, 0.5, 1}, {0.5, 2, 0.7}, {36, 36.01, 3}} {
		a, b, sigma := c[0], c[1], c[2]
		if got, want := normalCellJet(a, b, sigma).F, stdNormalCDFDiff(a, b); got != want {
			t.Errorf("cell (%v, %v): %v, stdNormalCDFDiff %v", a, b, got, want)
		}
		// The cell's edges as (μ, σ) move: x = (ln e − μ)/σ with ln e = a·σ.
		la, lb := a*sigma, b*sigma
		f := func(x [2]float64) stats.Jet {
			return normalCellJet((la-x[0])/x[1], (lb-x[0])/x[1], x[1]).Log()
		}
		j := f([2]float64{0, sigma})
		if sum := j.F + j.G[0] + j.G[1] + j.H[0][0] + j.H[0][1] + j.H[1][1]; math.IsInf(sum, 0) || math.IsNaN(sum) {
			t.Errorf("cell (%v, %v): ln P jet %+v not finite", a, b, j)
		}
		if eg, eH := jetError(f, [2]float64{0, sigma}, [2]float64{1e-4, 1e-4}, 0, 1); eg > 1e-6 || eH > 1e-6 {
			t.Errorf("cell (%v, %v): gradient %.2g, Hessian %.2g from the difference", a, b, eg, eH)
		}
	}
}
