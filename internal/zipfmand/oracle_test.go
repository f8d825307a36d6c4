package zipfmand

import (
	"math"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/stats"
)

// richardson returns the Richardson-extrapolated central differences of
// the oracle f at x with steps h: the gradient from its values and the
// Hessian's columns from its gradients.
func richardson(f stats.Oracle, x, h [2]float64) (g [2]float64, H [2][2]float64) {
	for i := range h {
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
// gradient and Hessian at x and their Richardson differences, relative
// to the largest entry of each.
func jetError(f stats.Oracle, x, h [2]float64) (eg, eH float64) {
	j := f(x)
	g, H := richardson(f, x, h)
	var sg, sH float64
	for i := range g {
		sg = math.Max(sg, math.Abs(j.G[i]))
		for k := range H[i] {
			sH = math.Max(sH, math.Abs(j.H[i][k]))
		}
	}
	for i := range g {
		eg = math.Max(eg, math.Abs(j.G[i]-g[i])/sg)
		for k := range H[i] {
			eH = math.Max(eH, math.Abs(j.H[i][k]-H[i][k])/sH)
		}
	}
	return eg, eH
}

// TestBinSumJetDerivs: BinSumJet's value is BinSum's bit for bit, and
// its gradient and Hessian in (α, δ) agree with a Richardson central
// difference to 1e-7 of their largest entry, on the direct path (ranges
// at most 512 wide, or α ≤ 1.02) and on the Hurwitz path (wider ranges
// at α > 1.02), with δ on both sides of 0.
func TestBinSumJetDerivs(t *testing.T) {
	const tol = 1e-7
	var worstG, worstH float64
	for _, r := range [][2]int{{1, 300}, {513, 1024}, {1, 1024}, {600, 1200}, {1, 20000}} {
		for _, alpha := range []float64{0.9, 1.01, 1.03, 2.2, 3.5} {
			for _, delta := range []float64{-0.7, 0, 0.8, 6} {
				f := func(x [2]float64) stats.Jet {
					return Model{Alpha: x[0], Delta: x[1]}.BinSumJet(r[0], r[1])
				}
				m := Model{Alpha: alpha, Delta: delta}
				if got, want := f([2]float64{alpha, delta}).F, m.BinSum(r[0], r[1]); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%v α=%v δ=%v: BinSumJet %v, BinSum %v", r, alpha, delta, got, want)
				}
				// Steps small enough that α ± 2h stays on one side of 1.02.
				eg, eH := jetError(f, [2]float64{alpha, delta}, [2]float64{1e-4, 1e-4})
				worstG, worstH = math.Max(worstG, eg), math.Max(worstH, eH)
				if eg > tol || eH > tol {
					t.Errorf("%v α=%v δ=%v (Hurwitz path %v): gradient %.2g, Hessian %.2g from the difference",
						r, alpha, delta, m.hurwitzRange(r[0], r[1]), eg, eH)
				}
			}
		}
	}
	t.Logf("largest relative difference: gradient %.2g, Hessian %.2g", worstG, worstH)
}

// TestPooledJets: pooledJets' bin values are PooledD's numerators and
// its normalizer Normalization's, bit for bit, with bins on both sides
// of the 512-wide Hurwitz threshold.
func TestPooledJets(t *testing.T) {
	for _, m := range []Model{{2.2, -0.6}, {1.01, 0.3}, {3.1, 4}} {
		for _, dmax := range []int{700, 5000, 100000} {
			bins := make([]stats.Jet, hist.BinIndex(dmax)+1)
			z := m.pooledJets(dmax, bins)
			want, err := m.PooledD(dmax)
			if err != nil {
				t.Fatal(err)
			}
			norm, _ := m.Normalization(dmax)
			if math.Float64bits(z.F) != math.Float64bits(norm) {
				t.Errorf("%+v dmax %d: normalizer %v, Normalization %v", m, dmax, z.F, norm)
			}
			if len(bins) != len(want) {
				t.Fatalf("%+v dmax %d: %d bins, PooledD %d", m, dmax, len(bins), len(want))
			}
			for i := range bins {
				lo, hi := hist.BinLower(i)+1, min(hist.BinUpper(i), dmax)
				b := bins[i]
				if math.Float64bits(b.F) != math.Float64bits(m.BinSum(lo, hi)) || b.F/z.F != want[i] {
					t.Errorf("%+v dmax %d bin %d: %v, BinSum %v", m, dmax, i, b.F, m.BinSum(lo, hi))
				}
			}
		}
	}
}

// TestSSEOracleDerivs: Fit's least-squares oracle, in log and linear
// space, against a Richardson central difference, on an observation
// wide enough that its upper bins take the Hurwitz path, with empty
// bins and sigma weights.
func TestSSEOracleDerivs(t *testing.T) {
	const tol = 1e-7
	const dmax = 40000
	truth, err := Model{Alpha: 2.1, Delta: -0.4}.PooledD(dmax)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, len(truth))
	weights := make([]float64, len(truth))
	for i, p := range truth {
		obs[i] = p * (1 + 0.1*math.Sin(float64(i))) // off the model, so r ≠ 0
		weights[i] = 1 + float64(i%3)
	}
	obs[9] = 0
	for _, logSpace := range []bool{true, false} {
		f := sseOracle(obs, weights, dmax, logSpace)
		for _, x := range [][2]float64{{2.1, -0.4}, {1.6, 0.5}, {1.01, -0.9}, {3, 8}} {
			eg, eH := jetError(f, x, [2]float64{1e-4, 1e-4})
			if eg > tol || eH > tol {
				t.Errorf("log space %v at %v: gradient %.2g, Hessian %.2g from the difference", logSpace, x, eg, eH)
			}
		}
	}
}
