package specialfn

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff <= tol*scale
}

func TestZetaKnownValues(t *testing.T) {
	cases := []struct {
		s    float64
		want float64
	}{
		{2, math.Pi * math.Pi / 6},
		{4, math.Pow(math.Pi, 4) / 90},
		{6, math.Pow(math.Pi, 6) / 945},
		{8, math.Pow(math.Pi, 8) / 9450},
		{3, 1.2020569031595942854}, // Apery's constant
		{1.5, 2.6123753486854883},
		{2.5, 1.3414872572509171},
		{1.1, 10.584448464950803},
		{10, 1.0009945751278180853},
	}
	for _, c := range cases {
		got, err := Zeta(c.s)
		if err != nil {
			t.Fatalf("Zeta(%v) error: %v", c.s, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Zeta(%v) = %.16g, want %.16g", c.s, got, c.want)
		}
	}
}

func TestZetaPaperRange(t *testing.T) {
	// Paper Section IV: 1.5 <= alpha <= 3 implies 1.202 <= zeta(alpha) <= 2.612.
	lo, err := Zeta(3)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Zeta(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if lo < 1.202 || lo > 1.2021 {
		t.Errorf("zeta(3) = %v outside paper-quoted band", lo)
	}
	if hi < 2.612 || hi > 2.613 {
		t.Errorf("zeta(1.5) = %v outside paper-quoted band", hi)
	}
}

func TestZetaDomainErrors(t *testing.T) {
	for _, s := range []float64{1, 0.5, 0, -2, math.NaN()} {
		if _, err := Zeta(s); err == nil {
			t.Errorf("Zeta(%v): expected domain error", s)
		}
	}
	if _, err := HurwitzZeta(2, 0); err == nil {
		t.Error("HurwitzZeta(2,0): expected domain error")
	}
	if _, err := HurwitzZeta(2, -1); err == nil {
		t.Error("HurwitzZeta(2,-1): expected domain error")
	}
}

func TestHurwitzReducesToRiemann(t *testing.T) {
	for _, s := range []float64{1.2, 1.5, 2, 2.5, 3, 5} {
		r, err1 := Zeta(s)
		h, err2 := HurwitzZeta(s, 1)
		if err1 != nil || err2 != nil {
			t.Fatalf("errors: %v %v", err1, err2)
		}
		if !almostEqual(r, h, 1e-14) {
			t.Errorf("s=%v: Zeta=%v HurwitzZeta(s,1)=%v", s, r, h)
		}
	}
}

func TestHurwitzRecurrence(t *testing.T) {
	// zeta(s,q) = zeta(s,q+1) + q^{-s}  -- fundamental recurrence.
	cfg := &quick.Config{MaxCount: 200}
	prop := func(sRaw, qRaw uint16) bool {
		s := 1.05 + float64(sRaw%400)/100 // s in [1.05, 5.05)
		q := 0.1 + float64(qRaw%1000)/50  // q in [0.1, 20.1)
		a, err1 := HurwitzZeta(s, q)
		b, err2 := HurwitzZeta(s, q+1)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(a, b+math.Pow(q, -s), 1e-11)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestHurwitzKnownValues(t *testing.T) {
	// zeta(2, 1/2) = pi^2/2 (= (2^2-2)*zeta(2)).
	got, err := HurwitzZeta(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pi * math.Pi / 2
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("zeta(2,1/2) = %v want %v", got, want)
	}
	// zeta(3, 1/2) = 7*zeta(3).
	got, err = HurwitzZeta(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want = 7 * 1.2020569031595942854
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("zeta(3,1/2) = %v want %v", got, want)
	}
}

func TestZetaMonotoneDecreasing(t *testing.T) {
	prev := math.Inf(1)
	for s := 1.05; s < 12; s += 0.05 {
		v, err := Zeta(s)
		if err != nil {
			t.Fatalf("Zeta(%v): %v", s, err)
		}
		if v >= prev {
			t.Fatalf("zeta not strictly decreasing at s=%v: %v >= %v", s, v, prev)
		}
		if v <= 1 {
			t.Fatalf("zeta(s) must exceed 1 for finite s, got %v at s=%v", v, s)
		}
		prev = v
	}
}

func TestLogFactorial(t *testing.T) {
	f := 1.0
	for d := 0; d <= 30; d++ {
		if d > 0 {
			f *= float64(d)
		}
		want := math.Log(f)
		if !almostEqual(LogFactorial(d), want, 1e-12) {
			t.Errorf("LogFactorial(%d) = %v want %v", d, LogFactorial(d), want)
		}
	}
	if !math.IsNaN(LogFactorial(-1)) {
		t.Error("LogFactorial(-1) should be NaN")
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, mu := range []float64{0.1, 1, 4.5, 15, 40} {
		var sum float64
		for k := 0; k < 400; k++ {
			sum += PoissonPMF(k, mu)
		}
		if !almostEqual(sum, 1, 1e-10) {
			t.Errorf("PMF(mu=%v) sums to %v", mu, sum)
		}
	}
}

func TestPoissonPMFEdge(t *testing.T) {
	if got := PoissonPMF(0, 0); got != 1 {
		t.Errorf("PMF(0;0)=%v", got)
	}
	if got := PoissonPMF(3, 0); got != 0 {
		t.Errorf("PMF(3;0)=%v", got)
	}
	if got := PoissonPMF(-1, 2); got != 0 {
		t.Errorf("PMF(-1;2)=%v", got)
	}
}

func TestExpm1Ratio(t *testing.T) {
	// Exact: 1 + x - e^{-x}.
	for _, x := range []float64{0, 1e-12, 1e-6, 0.5, 1, 5, 20} {
		want := 1 + x - math.Exp(-x)
		// For tiny x the naive form loses precision; compare with series
		// 2x - x^2/2 + ... when x < 1e-8 instead.
		if x < 1e-8 {
			want = 2*x - x*x/2
		}
		if !almostEqual(Expm1Ratio(x)+0, want, 1e-9) && math.Abs(Expm1Ratio(x)-want) > 1e-15 {
			t.Errorf("Expm1Ratio(%v) = %v want %v", x, Expm1Ratio(x), want)
		}
	}
}

func TestMomentRatioTaylor(t *testing.T) {
	// Paper: M(mu) ~ 2 + mu/3 for small mu (after erratum E1); the next
	// series term is mu^2/18.
	for _, mu := range []float64{1e-9, 1e-6, 1e-3, 0.01} {
		got := MomentRatio(mu)
		want := 2 + mu/3 + mu*mu/18
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Errorf("M(%v) = %v want ~%v", mu, got, want)
		}
	}
}

func TestMomentRatioMonotone(t *testing.T) {
	prev := 0.0
	for mu := 0.001; mu < 50; mu *= 1.2 {
		v := MomentRatio(mu)
		if v <= prev {
			t.Fatalf("M not increasing at mu=%v: %v <= %v", mu, v, prev)
		}
		if v <= 2 {
			t.Fatalf("M(mu) must exceed 2, got %v at mu=%v", v, mu)
		}
		prev = v
	}
	// Large-mu behaviour: M(mu) -> mu.
	if got := MomentRatio(100); math.Abs(got-100) > 1 {
		t.Errorf("M(100) = %v, want ~100", got)
	}
}

func TestSolveMomentRatioRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	prop := func(raw uint32) bool {
		mu := 1e-3 + float64(raw%100000)/1000 // (0.001, 100.001)
		m := MomentRatio(mu)
		rec, err := SolveMomentRatio(m)
		if err != nil {
			return false
		}
		return math.Abs(rec-mu) <= 1e-8*(1+mu)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestSolveMomentRatioBoundary(t *testing.T) {
	for _, m := range []float64{2, 1.5, 0, -3} {
		got, err := SolveMomentRatio(m)
		if err != nil || got != 0 {
			t.Errorf("SolveMomentRatio(%v) = %v, %v; want 0, nil", m, got, err)
		}
	}
	if _, err := SolveMomentRatio(math.NaN()); err == nil {
		t.Error("SolveMomentRatio(NaN): expected error")
	}
}

func TestMustZetaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustZeta(0.5) should panic")
		}
	}()
	MustZeta(0.5)
}

func BenchmarkZeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Zeta(1.5 + float64(i%100)/100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHurwitzZeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := HurwitzZeta(2.1, 0.3+float64(i%7)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveMomentRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := SolveMomentRatio(2.5 + float64(i%50)); err != nil {
			b.Fatal(err)
		}
	}
}
