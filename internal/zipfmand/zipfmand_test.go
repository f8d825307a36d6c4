package zipfmand

import (
	"math"
	"testing"
	"testing/quick"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/specialfn"
	"hybridplaw/internal/xrand"
)

func TestValidate(t *testing.T) {
	good := []Model{{2, 0}, {1.5, -0.9}, {0.5, 3}, {3, -0.99}}
	for _, m := range good {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", m, err)
		}
	}
	bad := []Model{{0, 0}, {-1, 0}, {2, -1}, {2, -1.5}, {math.NaN(), 0}, {2, math.NaN()}}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v): expected error", m)
		}
	}
}

func TestRhoDeltaZeroIsPowerLaw(t *testing.T) {
	m := Model{Alpha: 2, Delta: 0}
	for d := 1; d <= 100; d *= 2 {
		want := math.Pow(float64(d), -2)
		if got := m.Rho(d); math.Abs(got-want) > 1e-15 {
			t.Errorf("Rho(%d) = %v want %v", d, got, want)
		}
	}
}

func TestNormalizationMatchesDirectSum(t *testing.T) {
	// Hurwitz fast path must agree with direct summation.
	for _, m := range []Model{{1.5, -0.5}, {2.01, 0.6}, {2.9, -0.83}, {1.1, 0}} {
		dmax := 5000
		var direct float64
		for d := 1; d <= dmax; d++ {
			direct += m.Rho(d)
		}
		got, err := m.Normalization(dmax)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-direct) > 1e-9*direct {
			t.Errorf("%+v: normalization %v vs direct %v", m, got, direct)
		}
	}
}

func TestNormalizationErrors(t *testing.T) {
	if _, err := (Model{2, 0}).Normalization(0); err == nil {
		t.Error("dmax=0: expected error")
	}
	if _, err := (Model{0, 0}).Normalization(10); err == nil {
		t.Error("invalid model: expected error")
	}
}

func TestPMFSumsToOne(t *testing.T) {
	prop := func(aRaw, dRaw uint16) bool {
		m := Model{
			Alpha: 1.1 + float64(aRaw%200)/100,  // [1.1, 3.1)
			Delta: -0.9 + float64(dRaw%200)/100, // [-0.9, 1.1)
		}
		pmf, err := m.PMF(2048)
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range pmf {
			if p < 0 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPMFDecreasingForPositiveAlpha(t *testing.T) {
	m := Model{Alpha: 1.7, Delta: -0.4}
	pmf, err := m.PMF(1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pmf); i++ {
		if pmf[i] > pmf[i-1] {
			t.Fatalf("pmf increased at d=%d", i+1)
		}
	}
}

func TestPooledDMassAndConsistency(t *testing.T) {
	m := Model{Alpha: 2.01, Delta: -0.833} // Tokyo 2015 source packets fit
	dmax := 1 << 16
	pd, err := m.PooledD(dmax)
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
	// Bin 0 is p(1).
	pmfHead, err := m.PMF(dmax)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pd[0]-pmfHead[0]) > 1e-12 {
		t.Errorf("D(d0) = %v, p(1) = %v", pd[0], pmfHead[0])
	}
}

func TestPooledTailSlopeIsOneMinusAlpha(t *testing.T) {
	// Section IV.A: log-pooled bins of a d^{-alpha} law regress with slope
	// 1-alpha against log2 bin edge (not -alpha).
	alpha := 2.5
	m := Model{Alpha: alpha, Delta: 0}
	pd, err := m.PooledD(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Regression over bins 8..18 (large-i regime).
	var xs, ys []float64
	for i := 8; i <= 18; i++ {
		xs = append(xs, float64(i)*math.Ln2)
		ys = append(ys, math.Log(pd[i]))
	}
	// slope via simple fit
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	if math.Abs(slope-(1-alpha)) > 0.01 {
		t.Errorf("pooled slope = %v, want %v", slope, 1-alpha)
	}
}

func TestFitRecoversParametersFromModelData(t *testing.T) {
	// Generate the exact pooled distribution from a known model and verify
	// the fit recovers (alpha, delta).
	cases := []Model{
		{2.01, -0.833}, // Tokyo 2015 source packets
		{1.68, -0.758}, // Tokyo 2017 source fan-out
		{2.25, 0.602},  // Chicago A link packets
		{1.76, 0.871},  // Chicago B destination fan-in
		{2.26, -0.349}, // Chicago A destination packets
	}
	for _, truth := range cases {
		dmax := 1 << 15
		pd, err := truth.PooledD(dmax)
		if err != nil {
			t.Fatal(err)
		}
		obs := &hist.Pooled{D: pd, Total: 1 << 20}
		fit, err := Fit(obs, dmax, DefaultFitOptions())
		if err != nil {
			t.Fatalf("%+v: %v", truth, err)
		}
		if math.Abs(fit.Alpha-truth.Alpha) > 0.02 {
			t.Errorf("alpha = %v, want %v", fit.Alpha, truth.Alpha)
		}
		if math.Abs(fit.Delta-truth.Delta) > 0.05 {
			t.Errorf("delta = %v, want %v (alpha %v)", fit.Delta, truth.Delta, truth.Alpha)
		}
		if fit.KS > 1e-3 {
			t.Errorf("KS = %v for exact model data", fit.KS)
		}
	}
}

func TestFitFromSampledData(t *testing.T) {
	// Sample degrees from a ZM model via alias table, fit, and require
	// approximate recovery (statistical tolerance).
	truth := Model{Alpha: 2.0, Delta: -0.5}
	dmax := 1 << 14
	pmf, err := truth.PMF(dmax)
	if err != nil {
		t.Fatal(err)
	}
	alias, err := xrand.NewAlias(pmf)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(2024)
	h := hist.New()
	for i := 0; i < 300000; i++ {
		if err := h.Add(alias.Draw(r) + 1); err != nil {
			t.Fatal(err)
		}
	}
	fit, _, err := FitHistogram(h, DefaultFitOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-truth.Alpha) > 0.1 {
		t.Errorf("alpha = %v, want ~%v", fit.Alpha, truth.Alpha)
	}
	if math.Abs(fit.Delta-truth.Delta) > 0.2 {
		t.Errorf("delta = %v, want ~%v", fit.Delta, truth.Delta)
	}
}

// TestFitEnsemble pins the Fig. 3 fit: FitEnsemble fits the ensemble's
// mean pooled distribution over the merged histogram's dmax, and an
// ensemble with no windows (or a quantity no sink accumulated) is an
// error.
func TestFitEnsemble(t *testing.T) {
	truth := Model{Alpha: 2.0, Delta: -0.5}
	pmf, err := truth.PMF(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	alias, err := xrand.NewAlias(pmf)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	ens, merged := hist.NewEnsemble(), hist.New()
	for range 3 {
		h := hist.New()
		for range 40000 {
			if err := h.Add(alias.Draw(r) + 1); err != nil {
				t.Fatal(err)
			}
		}
		p, err := h.Pool()
		if err != nil {
			t.Fatal(err)
		}
		ens.Add(p)
		merged.Merge(h)
	}
	fit, err := FitEnsemble(ens, merged, DefaultFitOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fit(&hist.Pooled{D: ens.Mean(), Total: merged.Total()}, merged.MaxDegree(), DefaultFitOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fit != want {
		t.Errorf("FitEnsemble = %+v, want the mean-pooled fit %+v", fit, want)
	}
	if math.Abs(fit.Alpha-truth.Alpha) > 0.15 {
		t.Errorf("alpha = %v, want ~%v", fit.Alpha, truth.Alpha)
	}
	if _, err := FitEnsemble(nil, nil, DefaultFitOptions()); err == nil {
		t.Error("nil ensemble: expected error")
	}
	if _, err := FitEnsemble(hist.NewEnsemble(), hist.New(), DefaultFitOptions()); err == nil {
		t.Error("empty ensemble: expected error")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, 10, DefaultFitOptions()); err == nil {
		t.Error("nil observation: expected error")
	}
	if _, err := Fit(&hist.Pooled{D: nil}, 10, DefaultFitOptions()); err == nil {
		t.Error("empty observation: expected error")
	}
	obs := &hist.Pooled{D: []float64{0.5, 0.3, 0.2}}
	if _, err := Fit(obs, 1, DefaultFitOptions()); err == nil {
		t.Error("dmax below support: expected error")
	}
	if _, err := Fit(obs, 4, FitOptions{Sigma: []float64{1}}); err == nil {
		t.Error("sigma length mismatch: expected error")
	}
	if _, err := Fit(obs, 4, FitOptions{Starts: [][]float64{{2, 0}, {2}}}); err == nil {
		t.Error("start that is not an (alpha, delta) pair: expected error")
	}
}

func TestFitWithSigmaWeights(t *testing.T) {
	truth := Model{Alpha: 2.2, Delta: 0.1}
	dmax := 1 << 12
	pd, err := truth.PooledD(dmax)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one bin and down-weight it with a large sigma: the fit should
	// still recover the truth closely.
	corrupted := append([]float64(nil), pd...)
	corrupted[3] *= 3
	sigma := make([]float64, len(pd))
	for i := range sigma {
		sigma[i] = 0.01
	}
	sigma[3] = 1e6
	fit, err := Fit(&hist.Pooled{D: corrupted, Total: 1000}, dmax, FitOptions{LogSpace: true, Sigma: sigma})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-truth.Alpha) > 0.05 {
		t.Errorf("weighted fit alpha = %v", fit.Alpha)
	}
}

func TestNormalizationAgainstHurwitz(t *testing.T) {
	// For delta > -1 and alpha > 1, the infinite-support normalizer is
	// zeta(alpha, 1+delta); the finite sum must approach it as dmax grows.
	m := Model{Alpha: 2.5, Delta: -0.3}
	inf, err := specialfn.HurwitzZeta(m.Alpha, 1+m.Delta)
	if err != nil {
		t.Fatal(err)
	}
	z, err := m.Normalization(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-inf) > 1e-6*inf {
		t.Errorf("finite normalizer %v vs zeta(alpha,1+delta) %v", z, inf)
	}
}

func BenchmarkPooledD(b *testing.B) {
	m := Model{Alpha: 2.01, Delta: -0.833}
	for i := 0; i < b.N; i++ {
		if _, err := m.PooledD(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFit fits exact model data and reports the oracle calls per
// fit.
func BenchmarkFit(b *testing.B) {
	truth := Model{Alpha: 2.0, Delta: -0.5}
	pd, err := truth.PooledD(1 << 15)
	if err != nil {
		b.Fatal(err)
	}
	obs := &hist.Pooled{D: pd, Total: 1 << 20}
	b.ResetTimer()
	var evals int
	for i := 0; i < b.N; i++ {
		fit, err := Fit(obs, 1<<15, DefaultFitOptions())
		if err != nil {
			b.Fatal(err)
		}
		evals += fit.Evals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}

// BenchmarkOracle times one value-only evaluation of Fit's log-space
// objective (PooledD and the squared log residuals, as the solver
// called it per stencil point) against one call of its oracle (value,
// gradient and exact Hessian), at the default start (2, 0) on
// BenchmarkFit's observation.
func BenchmarkOracle(b *testing.B) {
	const dmax = 1 << 15
	obs, err := Model{Alpha: 2.0, Delta: -0.5}.PooledD(dmax)
	if err != nil {
		b.Fatal(err)
	}
	weights := make([]float64, len(obs))
	for i := range weights {
		weights[i] = 1
	}
	x := [2]float64{2, 0}
	b.Run("value", func(b *testing.B) {
		for b.Loop() {
			md, err := Model{Alpha: x[0], Delta: x[1]}.PooledD(dmax)
			if err != nil {
				b.Fatal(err)
			}
			var sse float64
			for j, o := range obs {
				r := math.Log(o) - math.Log(md[j])
				sse += weights[j] * r * r
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		f := sseOracle(obs, weights, dmax, true)
		for b.Loop() {
			f(x)
		}
	})
}
