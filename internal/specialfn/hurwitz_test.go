package specialfn

import (
	"math"
	"testing"

	"hybridplaw/internal/stats"
)

// refHurwitzZeta is HurwitzZeta as it was before the fixed-q form: every
// power is a math.Pow call. Hurwitz.Zeta must return its bits.
func refHurwitzZeta(s, q float64) (float64, error) {
	if math.IsNaN(s) || math.IsNaN(q) || s <= 1 || q <= 0 {
		return math.NaN(), ErrDomain
	}
	var head float64
	n := 0
	for ; n < emCutoff; n++ {
		head += math.Pow(q+float64(n), -s)
	}
	a := q + float64(n)
	tail := math.Pow(a, 1-s)/(s-1) + 0.5*math.Pow(a, -s)
	fact := []float64{
		2, 24, 720, 40320, 3628800, 479001600, 87178291200, 20922789888000,
	}
	rising := s
	pw := math.Pow(a, -s-1)
	inva2 := 1 / (a * a)
	for k := 0; k < len(bernoulli2k); k++ {
		term := bernoulli2k[k] / fact[k] * rising * pw
		tail += term
		if math.Abs(term) < 1e-18*math.Abs(tail) {
			break
		}
		rising *= (s + float64(2*k+1)) * (s + float64(2*k+2))
		pw *= inva2
	}
	return head + tail, nil
}

// goldenSectionPoints returns every α that golden-section searches over
// the CSN bracket [1.01, 6] visit, for optima spread across it: a dense,
// irregular grid of the exponents the CSN fit evaluates.
func goldenSectionPoints(t *testing.T) []float64 {
	t.Helper()
	var pts []float64
	for _, target := range []float64{1.01, 1.2, 1.5, 1.8, 2, 2.2, 2.5, 3, 4, 5.5, 6} {
		_, err := stats.GoldenSection(func(s float64) float64 {
			pts = append(pts, s)
			return math.Abs(s - target)
		}, 1.01, 6, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

func TestHurwitzFixedQBitExact(t *testing.T) {
	// s = 1.5 sends 1−s = −0.5 down pow's 1/Sqrt branch; at integer s the
	// exponents have no fractional part.
	ss := append(goldenSectionPoints(t), 1.5, 2, 3, 6)
	var qs []float64
	for q := 1; q <= 128; q++ {
		qs = append(qs, float64(q))
	}
	for q := 129.0; q < 1<<20; q = math.Ceil(q * 1.1) {
		qs = append(qs, q)
	}
	qs = append(qs, 1<<20, 0.5, 1+0x1p-52, 1.3, 1e-3, 1e6)
	checked := 0
	for _, q := range qs {
		h := NewHurwitz(q)
		for _, s := range ss {
			got, err := h.Zeta(s)
			if err != nil {
				t.Fatalf("Zeta(%v, %v): %v", s, q, err)
			}
			want, _ := refHurwitzZeta(s, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("q=%v s=%v: fixed-q %v, math.Pow reference %v", q, s, got, want)
			}
			if one, _ := HurwitzZeta(s, q); math.Float64bits(one) != math.Float64bits(want) {
				t.Fatalf("q=%v s=%v: HurwitzZeta %v, reference %v", q, s, one, want)
			}
			checked++
		}
	}
	t.Logf("%d (s, q) pairs over %d golden-section points", checked, len(ss)-4)
}

func TestHurwitzFixedQEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, q := range []float64{0, -1, nan, inf, -inf, 1, 0.5, 5e-324, 1e300} {
		h := NewHurwitz(q)
		for _, s := range []float64{nan, 1, 0.5, -2, inf, -inf, 1.01, 2, 300} {
			got, gotErr := h.Zeta(s)
			want, wantErr := refHurwitzZeta(s, q)
			if (gotErr == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Zeta(%v, %v) = %v, %v; reference %v, %v", s, q, got, gotErr, want, wantErr)
			}
		}
	}
}

func TestHurwitzHugeSIsZero(t *testing.T) {
	// Every power underflows to 0; the Euler–Maclaurin loop must stop
	// before its rising factorial overflows and 0·Inf gives NaN.
	for _, s := range []float64{1e20, 1e25, 1e300} {
		for _, q := range []float64{2, 1025} {
			if got, err := HurwitzZeta(s, q); got != 0 || err != nil {
				t.Errorf("HurwitzZeta(%v, %v) = %v, %v; want 0", s, q, got, err)
			}
		}
	}
}

func TestPowBaseMatchesMathPow(t *testing.T) {
	bases := []float64{
		2, 3, 10, 33, 1024, 1025, 123456, 1 << 20, 1e6 + 0.5, 0.5, 1 + 0x1p-52,
		1e-3, 1e-300, 5e-324, 1e300, math.MaxFloat64,
		// general == false: math.Pow answers these itself.
		1, 0, -2, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	ys := []float64{
		0, 1, -1, 0.5, -0.5, 2, -2, 0.75, -0.75, 0.25, -1.01, -2.2, -3.7, -6,
		-7.000001, 1 - 1.37, -1.37 - 1, 63.5, -63.5,
		// Results that underflow to a subnormal or to zero, or overflow.
		-1074, -1075, -1022.5, -320, -400, 400, 1e4, -1e4, 1e5 + 0.3,
		// The squaring loop's overflow guard, and |y| >= 2^63.
		1e15, -1e15, 0x1p62 + 0x1p10, 0x1p63, -0x1p64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, x := range bases {
		b := newPowBase(x)
		for _, y := range ys {
			if got, want := b.pow(y), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("pow(%v, %v) = %v, math.Pow %v", x, y, got, want)
			}
		}
	}
	// A dense sweep of the exponents the zeta sums use: -s, 1-s, -s-1.
	for s := 1.01; s < 6.5; s += 0.001 {
		for _, x := range []float64{2, 7.25, 32, 33, 1000, 1 << 20} {
			b := newPowBase(x)
			for _, y := range []float64{-s, 1 - s, -s - 1} {
				if got, want := b.pow(y), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("pow(%v, %v) = %v, math.Pow %v", x, y, got, want)
				}
			}
		}
	}
	// The edge exponents above do reach the results they are there for.
	for _, c := range []struct{ x, y, want float64 }{
		{2, -1074, 5e-324},
		{10, -320, 1e-320},
		{10, -400, 0},
		{1e300, 1e4, math.Inf(1)},
		{1e300, -1e4, 0},
	} {
		b := newPowBase(c.x)
		if got := b.pow(c.y); got != c.want {
			t.Errorf("pow(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

// richardsonDerivs returns ∂ζ/∂s and ∂²ζ/∂s² of h.Zeta at s by central
// differences with Richardson extrapolation: the recipe of the seed's
// finite-difference ZetaDeriv, applied to the first and the second
// difference. Both errors are O(step⁴) against rounding of O(ε/step)
// and O(ε/step²), so the steps shrink with s − 1 toward the pole.
func richardsonDerivs(t *testing.T, h *Hurwitz, s float64) (d1, d2 float64) {
	t.Helper()
	f := func(x float64) float64 {
		z, err := h.Zeta(x)
		if err != nil {
			t.Fatalf("Zeta(%v): %v", x, err)
		}
		return z
	}
	first := func(step float64) float64 { return (f(s+step) - f(s-step)) / (2 * step) }
	f0 := f(s)
	second := func(step float64) float64 { return (f(s+step) - 2*f0 + f(s-step)) / (step * step) }
	h1, h2 := math.Min(1e-3, 1e-4*(s-1)), math.Min(1e-2, 1e-3*(s-1))
	return (4*first(h1/2) - first(h1)) / 3, (4*second(h2/2) - second(h2)) / 3
}

// TestHurwitzDerivs: ZetaDerivs' ζ is the math.Pow reference's bit for
// bit, and its ∂ζ/∂s and ∂²ζ/∂s² agree with a Richardson central
// difference of Zeta to 1e-8 and 1e-7 relative, over the CSN exponent
// range and cutoffs up to the suite's largest scan candidate. The
// difference itself is good to about 2e-10 and 1.3e-8 there.
func TestHurwitzDerivs(t *testing.T) {
	const tol1, tol2 = 1e-8, 1e-7
	var worst1, worst2 float64
	for _, q := range []float64{1, 2, 9, 33, 749} {
		h := NewHurwitz(q)
		for _, s := range []float64{1.01, 1.05, 1.5, 2, 3, 6} {
			z, dz, d2z, err := h.ZetaDerivs(s)
			if err != nil {
				t.Fatalf("ZetaDerivs(%v, %v): %v", s, q, err)
			}
			if want, _ := refHurwitzZeta(s, q); math.Float64bits(z) != math.Float64bits(want) {
				t.Errorf("q=%v s=%v: ZetaDerivs ζ %v, reference %v", q, s, z, want)
			}
			if one, _ := h.Zeta(s); math.Float64bits(z) != math.Float64bits(one) {
				t.Errorf("q=%v s=%v: ZetaDerivs ζ %v, Zeta %v", q, s, z, one)
			}
			if !(dz < 0 && d2z > 0 && d2z*z > dz*dz) {
				t.Errorf("q=%v s=%v: ζ=%v ζ′=%v ζ″=%v: want ζ′ < 0 < ζ″ and ln ζ convex", q, s, z, dz, d2z)
			}
			want1, want2 := richardsonDerivs(t, &h, s)
			e1, e2 := math.Abs(dz-want1)/math.Abs(want1), math.Abs(d2z-want2)/math.Abs(want2)
			worst1, worst2 = math.Max(worst1, e1), math.Max(worst2, e2)
			if e1 > tol1 || e2 > tol2 {
				t.Errorf("q=%v s=%v: ζ′ %v (difference %v, %.2g relative), ζ″ %v (difference %v, %.2g relative)",
					q, s, dz, want1, e1, d2z, want2, e2)
			}
		}
	}
	t.Logf("largest relative difference: ζ′ %.2g, ζ″ %.2g", worst1, worst2)
	h := NewHurwitz(2)
	for _, s := range []float64{1, 0.5, math.NaN()} {
		if _, _, _, err := h.ZetaDerivs(s); err != ErrDomain {
			t.Errorf("ZetaDerivs(%v) error %v, want ErrDomain", s, err)
		}
	}
}

func BenchmarkHurwitz(b *testing.B) {
	// Many exponents at one fixed q, as a CSN fit at one xmin evaluates.
	const q = 5
	ss := []float64{2.9, 3.0901699, 2.7082039, 2.8541020, 2.9442719}
	b.Run("fixed-q", func(b *testing.B) {
		h := NewHurwitz(q)
		for i := 0; i < b.N; i++ {
			if _, err := h.Zeta(ss[i%len(ss)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	// One step of the CSN score solve: ζ, ∂ζ/∂s and ∂²ζ/∂s² at once.
	b.Run("fixed-q-derivs", func(b *testing.B) {
		h := NewHurwitz(q)
		for i := 0; i < b.N; i++ {
			if _, _, _, err := h.ZetaDerivs(ss[i%len(ss)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := HurwitzZeta(ss[i%len(ss)], q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
