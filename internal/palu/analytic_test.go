package palu

import (
	"math"
	"testing"

	"hybridplaw/internal/specialfn"
)

func mustObservation(t *testing.T, wc, wl, wu, lambda, alpha, p float64) Observation {
	t.Helper()
	params, err := FromWeights(wc, wl, wu, lambda, alpha)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewObservation(params, p)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestVisibleFractionP1AllStarsVisible(t *testing.T) {
	// With p=1 every leaf and every star node except e^{-λ} isolated
	// centers is visible; the core term approximation is 1/((α−1)ζ(α)).
	o := mustObservation(t, 1, 1, 1, 2, 2.0, 1)
	got := o.VisibleFraction()
	want := o.Params.C/((o.Alpha-1)*specialfn.MustZeta(o.Alpha)) +
		o.Params.L + o.Params.U*specialfn.Expm1Ratio(o.Lambda)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("V = %v want %v", got, want)
	}
}

func TestVisibleFractionExactAtP1(t *testing.T) {
	// At p=1 the exact core visibility is exactly 1 (every core node has
	// degree >= 1 by construction), so V_exact = C + L + U(1+λ−e^{−λ}) = 1.
	o := mustObservation(t, 1, 1, 1, 2, 2.0, 1)
	got := o.VisibleFractionExact()
	if math.Abs(got-1) > 1e-6 {
		t.Errorf("V_exact(p=1) = %v want 1", got)
	}
}

func TestVisibleFractionZeroAtP0(t *testing.T) {
	o := mustObservation(t, 1, 1, 1, 2, 2.0, 0)
	if got := o.VisibleFractionExact(); got != 0 {
		t.Errorf("V_exact(p=0) = %v", got)
	}
	if got := o.VisibleFraction(); got != 0 {
		t.Errorf("V(p=0) = %v", got)
	}
}

func TestVisibleFractionMonotoneInP(t *testing.T) {
	params, _ := FromWeights(1, 1, 1, 3, 2.2)
	prev := -1.0
	for p := 0.0; p <= 1.0001; p += 0.05 {
		pp := math.Min(p, 1)
		o, err := NewObservation(params, pp)
		if err != nil {
			t.Fatal(err)
		}
		v := o.VisibleFractionExact()
		if v < prev-1e-12 {
			t.Fatalf("V_exact not monotone at p=%v", pp)
		}
		prev = v
	}
}

func TestFractionsSumSanity(t *testing.T) {
	// Core + leaves + unattached node fractions account for all visible
	// nodes (exact mode), so they must sum to ~1.
	for _, p := range []float64{0.1, 0.3, 0.7, 1} {
		o := mustObservation(t, 1, 1.2, 0.8, 2.5, 2.0, p)
		f := o.ExpectedFractions(true)
		sum := f.Core + f.Leaves + f.UnattachedNodes
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("p=%v: fraction sum = %v (core %v leaves %v unattached %v)",
				p, sum, f.Core, f.Leaves, f.UnattachedNodes)
		}
		if f.UnattachedLinks < 0 || f.UnattachedLinks > f.UnattachedNodes {
			t.Errorf("p=%v: unattached links %v inconsistent", p, f.UnattachedLinks)
		}
		if f.DegreeOne <= 0 || f.DegreeOne > 1 {
			t.Errorf("p=%v: degree-one fraction %v", p, f.DegreeOne)
		}
	}
}

func TestDegreeFractionMatchesReducedConstants(t *testing.T) {
	// For d >= 2 the approximate DegreeFraction must equal the reduced
	// degree law evaluated through Constants (they are the same formula).
	o := mustObservation(t, 1, 1, 1, 3, 2.1, 0.4)
	k, err := o.ReducedConstants(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{2, 3, 5, 10, 100} {
		df, err := o.DegreeFraction(d, false)
		if err != nil {
			t.Fatal(err)
		}
		kr, err := k.DegreeRatio(d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(df-kr) > 1e-12*(df+1e-300) {
			t.Errorf("d=%d: DegreeFraction %v != DegreeRatio %v", d, df, kr)
		}
	}
	// d=1 likewise.
	df, _ := o.DegreeFraction(1, false)
	kr, _ := k.DegreeRatio(1)
	if math.Abs(df-kr) > 1e-12 {
		t.Errorf("d=1: %v vs %v", df, kr)
	}
}

func TestDegreeFractionErrors(t *testing.T) {
	o := mustObservation(t, 1, 1, 1, 3, 2.1, 0.4)
	if _, err := o.DegreeFraction(0, false); err == nil {
		t.Error("d=0: expected error")
	}
	if _, err := o.DegreeFraction(-2, true); err == nil {
		t.Error("d<0: expected error")
	}
}

func TestTailDominatedByPowerLaw(t *testing.T) {
	// Eq. (4): for d >= 10 the star term is negligible and ratio ≈ c d^{−α}.
	o := mustObservation(t, 1, 1, 1, 2, 2.0, 0.5)
	k, err := o.ReducedConstants(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{10, 20, 50, 100} {
		full, err := k.DegreeRatio(d)
		if err != nil {
			t.Fatal(err)
		}
		tail := k.C * math.Pow(float64(d), -k.Alpha)
		if math.Abs(full-tail) > 0.01*tail {
			t.Errorf("d=%d: full %v vs tail %v differ by more than 1%%", d, full, tail)
		}
	}
}

func TestReducedConstantsPositive(t *testing.T) {
	o := mustObservation(t, 1, 1, 1, 2, 2.0, 0.5)
	k, err := o.ReducedConstants(true)
	if err != nil {
		t.Fatal(err)
	}
	if k.C <= 0 || k.L <= 0 || k.U <= 0 {
		t.Errorf("constants must be positive: %+v", k)
	}
	if math.Abs(k.Lambda-math.E*k.Mu) > 1e-12 {
		t.Errorf("Lambda = %v, want e*mu = %v", k.Lambda, math.E*k.Mu)
	}
	if k.Alpha != o.Alpha {
		t.Errorf("alpha not carried: %v", k.Alpha)
	}
}

func TestReducedConstantsZeroV(t *testing.T) {
	params, _ := FromWeights(1, 1, 1, 2, 2)
	o, _ := NewObservation(params, 0)
	if _, err := o.ReducedConstants(true); err == nil {
		t.Error("p=0: expected zero-V error")
	}
}

func TestDegreeRatioDegreeOneConsistent(t *testing.T) {
	// ratio(1) from Constants equals DegreeFraction(1): c + l + uμ(1+e^μ).
	o := mustObservation(t, 2, 1, 0.5, 4, 1.9, 0.3)
	k, err := o.ReducedConstants(false)
	if err != nil {
		t.Fatal(err)
	}
	mu := o.Mu()
	want := k.C + k.L + k.U*mu*(1+math.Exp(mu))
	got, err := k.DegreeRatio(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-14 {
		t.Errorf("ratio(1) = %v want %v", got, want)
	}
	if _, err := k.DegreeRatio(0); err == nil {
		t.Error("d=0: expected error")
	}
}

func TestCoreDegreeExactSumsToVisibility(t *testing.T) {
	// Σ_{d>=1} coreDegreeExact(d) must equal coreVisibleExact.
	o := mustObservation(t, 1, 0, 0, 0, 2.2, 0.35)
	var sum float64
	for d := 1; d <= 400; d++ {
		sum += o.coreDegreeExact(d)
	}
	vis := o.coreVisibleExact()
	if math.Abs(sum-vis) > 1e-3*vis {
		t.Errorf("sum of degree probabilities %v vs visibility %v", sum, vis)
	}
}

func TestPaperVsExactCoreApproximation(t *testing.T) {
	// Erratum E5 (documented in DESIGN.md): the paper's core-visibility
	// approximation p^{α−1}/((α−1)ζ(α)) captures the α < 2 small-p regime
	// only. For α > 2 the exact visibility Σ d^{−α}(1−(1−p)^d)/ζ(α) is
	// dominated by 1−(1−p)^d ≈ pd, i.e. it scales LINEARLY as
	// p·ζ(α−1)/ζ(α). This test pins down both regimes.
	t.Run("alpha<2 follows the paper scaling", func(t *testing.T) {
		params, err := FromWeights(1, 0, 0, 0, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		// exact(p)/p^{α−1} should be near-constant for small p.
		var ratios []float64
		for _, p := range []float64{0.002, 0.01, 0.05} {
			o, err := NewObservation(params, p)
			if err != nil {
				t.Fatal(err)
			}
			ratios = append(ratios, o.VisibleFractionExact()/math.Pow(p, 0.5))
		}
		for i := 1; i < len(ratios); i++ {
			if r := ratios[i] / ratios[0]; r < 0.75 || r > 1.35 {
				t.Errorf("p^{α−1} scaling violated: ratios %v", ratios)
			}
		}
	})
	t.Run("alpha>2 is linear in p", func(t *testing.T) {
		params, err := FromWeights(1, 0, 0, 0, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		want := specialfn.MustZeta(1.5) / specialfn.MustZeta(2.5)
		prevGap := math.Inf(1)
		// Convergence to the linear limit is slow (the ζ(α−1) sum carries
		// weight at d ≳ 1/p), so assert a 15% band plus monotone approach.
		for _, p := range []float64{0.03, 0.01, 0.002} {
			o, err := NewObservation(params, p)
			if err != nil {
				t.Fatal(err)
			}
			got := o.VisibleFractionExact() / p
			gap := math.Abs(got - want)
			if gap > 0.15*want {
				t.Errorf("p=%v: exact/p = %v, want ζ(α−1)/ζ(α) = %v", p, got, want)
			}
			if gap > prevGap+1e-12 {
				t.Errorf("p=%v: gap %v not shrinking toward the linear limit", p, gap)
			}
			prevGap = gap
			// And the paper's approximation underestimates here.
			if o.VisibleFraction() >= o.VisibleFractionExact() {
				t.Errorf("p=%v: paper approx should underestimate for α>2", p)
			}
		}
	})
}

func BenchmarkExpectedFractionsExact(b *testing.B) {
	params, err := FromWeights(1, 1, 1, 2, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	o, err := NewObservation(params, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.ExpectedFractions(true)
	}
}
