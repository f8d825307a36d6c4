package xrand

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"hybridplaw/internal/specialfn"
)

// chiSquareUpper99 are 99.9%-ile chi-square critical values indexed by
// degrees of freedom, used for distributional sanity checks with fixed
// seeds (the tests are deterministic, so no flakiness).
var chiSquareUpper999 = map[int]float64{
	4: 18.47, 5: 20.52, 9: 27.88, 10: 29.59, 14: 36.12, 19: 43.82, 24: 51.18,
}

func TestZetaMatchesPMF(t *testing.T) {
	r := New(1234)
	const n = 200000
	alpha := 2.5
	sampler := NewZetaSampler(alpha)
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		d, err := sampler.Draw(r)
		if err != nil {
			t.Fatal(err)
		}
		if d < 1 {
			t.Fatalf("zeta draw %d < 1", d)
		}
		if d > 10 {
			d = 11 // tail bucket
		}
		counts[d]++
	}
	z := specialfn.MustZeta(alpha)
	var chi2 float64
	var tailP float64 = 1
	for d := 1; d <= 10; d++ {
		p := math.Pow(float64(d), -alpha) / z
		tailP -= p
		exp := p * n
		obs := float64(counts[d])
		chi2 += (obs - exp) * (obs - exp) / exp
	}
	expTail := tailP * n
	obsTail := float64(counts[11])
	chi2 += (obsTail - expTail) * (obsTail - expTail) / expTail
	if chi2 > chiSquareUpper999[10] {
		t.Errorf("zeta(2.5) chi-square = %v exceeds 99.9%% critical value", chi2)
	}
}

func TestZetaMeanAlpha3(t *testing.T) {
	// For alpha=3 the mean is zeta(2)/zeta(3) ~ 1.3684.
	r := New(99)
	const n = 300000
	var sum float64
	z := NewZetaSampler(3)
	for i := 0; i < n; i++ {
		d, err := z.Draw(r)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(d)
	}
	want := specialfn.MustZeta(2) / specialfn.MustZeta(3)
	got := sum / n
	if math.Abs(got-want) > 0.02 {
		t.Errorf("zeta(3) sample mean = %v, want %v", got, want)
	}
}

func TestZetaParamErrors(t *testing.T) {
	r := New(1)
	for _, a := range []float64{1, 0.5, -1, math.NaN(), math.Inf(1)} {
		z := NewZetaSampler(a)
		if _, err := z.Draw(r); !errors.Is(err, errParam) {
			t.Errorf("zeta draw at α=%v: error %v, want errParam", a, err)
		}
	}
}

// TestZetaTableMatchesPow steps u one ulp at a time through ±20,000 ulps
// around every boundary c_k = k^{−(α−1)} of the table and around both
// guard edges of every row. Wherever the table answers, its x is
// ⌊u^{−1/(α−1)}⌋ and its t is (1+1/x)^(α−1), both as math.Pow gives
// them; the u just inside each guard edge must be answered. α = 200 has
// subnormal boundaries below its one row, α = 1.001 sixty-four rows
// packed just under u = 1.
func TestZetaTableMatchesPow(t *testing.T) {
	const span = 20000
	for _, alpha := range []float64{1.001, 1.01, 1.5, 2, 2.2, 2.6, 3, 6, 40, 200} {
		z := NewZetaSampler(alpha)
		rows := z.rows[:z.nrows]
		if len(rows) == 0 {
			t.Fatalf("α=%v: empty table", alpha)
		}
		answered := 0
		check := func(u float64) bool {
			x, tt := z.lookup(u)
			if x == 0 {
				return false
			}
			answered++
			if want := math.Floor(math.Pow(u, -1/(alpha-1))); x != want {
				t.Fatalf("α=%v u=%v (%#x): table x %v, math.Pow %v", alpha, u, math.Float64bits(u), x, want)
			}
			if want := math.Pow(1+1/x, alpha-1); math.Float64bits(tt) != math.Float64bits(want) {
				t.Fatalf("α=%v x=%v: table t %v, math.Pow %v", alpha, x, tt, want)
			}
			return true
		}
		around := func(c float64) {
			for u, i := c, 0; i <= span; u, i = math.Nextafter(u, 0), i+1 {
				check(u)
			}
			for u, i := math.Nextafter(c, 2), 0; i < span; u, i = math.Nextafter(u, 2), i+1 {
				check(u)
			}
		}
		for k := 1; k <= len(rows)+1; k++ {
			around(math.Pow(float64(k), -(alpha - 1)))
		}
		for k, row := range rows {
			around(row.lo)
			around(row.hi)
			if !check(math.Nextafter(row.lo, 2)) || !check(math.Nextafter(row.hi, 0)) {
				t.Errorf("α=%v: row x=%d does not answer inside (%v, %v)", alpha, k+1, row.lo, row.hi)
			}
		}
		t.Logf("α=%v: %d rows, %d answered u", alpha, len(rows), answered)
	}
}

// refZeta is the one-shot zeta draw ZetaSampler replaced: every draw
// recomputes 2^(α−1) and −1/(α−1) and takes both of its powers.
func refZeta(r *RNG, alpha float64) (int, error) {
	if !(alpha > 1) || math.IsInf(alpha, 1) {
		return 0, errParam
	}
	am1 := alpha - 1
	b := math.Pow(2, am1)
	for i := 0; i < 1<<20; i++ {
		u := r.Float64Open()
		v := r.Float64()
		x := math.Floor(math.Pow(u, -1/am1))
		if x < 1 || x > math.MaxInt64/2 || math.IsInf(x, 0) {
			continue
		}
		t := math.Pow(1+1/x, am1)
		if v*x*(t-1)/(b-1) <= t/b {
			return int(x), nil
		}
	}
	return 0, errors.New("xrand: zeta sampler failed to accept")
}

// TestZetaSamplerMatchesPerDrawConstants: a ZetaSampler built once per α
// returns the per-draw reference's draws and leaves the RNG in the same
// state, capped draws included.
func TestZetaSamplerMatchesPerDrawConstants(t *testing.T) {
	for _, alpha := range []float64{1.01, 1.3, 1.5, 2, 2.2, 2.5, 2.6, 3, 6, 40} {
		a, b := New(7), New(7)
		z := NewZetaSampler(alpha)
		for i := 0; i < 20000; i++ {
			got, gotErr := z.Draw(a)
			want, wantErr := refZeta(b, alpha)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("α=%v draw %d: %d, %v; reference %d, %v", alpha, i, got, gotErr, want, wantErr)
			}
		}
		for i := 0; i < 2000; i++ {
			got, err := z.DrawCapped(a, 50)
			if err != nil {
				t.Fatal(err)
			}
			want := 51
			for want > 50 {
				if want, err = refZeta(b, alpha); err != nil {
					t.Fatal(err)
				}
			}
			if got != want {
				t.Fatalf("α=%v capped draw %d: %d, reference %d", alpha, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Errorf("α=%v: sampler and reference leave the RNG in different states", alpha)
		}
	}
}

func TestZetaCapped(t *testing.T) {
	r := New(2)
	z := NewZetaSampler(1.7)
	for i := 0; i < 50000; i++ {
		d, err := z.DrawCapped(r, 100)
		if err != nil {
			t.Fatal(err)
		}
		if d < 1 || d > 100 {
			t.Fatalf("capped draw %d outside [1,100]", d)
		}
	}
	z = NewZetaSampler(2)
	if _, err := z.DrawCapped(r, 0); err == nil {
		t.Error("DrawCapped with maxD=0: expected error")
	}
}

// TestPoissonSamplerMatchesPoisson: a PoissonSampler built once per μ
// returns RNG.Poisson's draws and errors and leaves the RNG in the same
// state, on both sides of the μ = 30 method switch and at the domain's
// edges.
func TestPoissonSamplerMatchesPoisson(t *testing.T) {
	for _, mu := range []float64{0, 1e-9, 0.3, 1, 2.5, 8, 29.999, 30, 75, 400, -1, math.NaN(), math.Inf(1)} {
		a, b := New(13), New(13)
		p := NewPoissonSampler(mu)
		for i := 0; i < 20000; i++ {
			got, gotErr := p.Draw(a)
			want, wantErr := b.Poisson(mu)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("μ=%v draw %d: %d, %v; RNG.Poisson %d, %v", mu, i, got, gotErr, want, wantErr)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Errorf("μ=%v: sampler and RNG.Poisson leave the RNG in different states", mu)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, mu := range []float64{0.3, 2, 8, 29.5, 30, 75, 400} {
		r := New(uint64(mu*1000) + 7)
		const n = 120000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			k, err := r.Poisson(mu)
			if err != nil {
				t.Fatal(err)
			}
			if k < 0 {
				t.Fatalf("negative Poisson draw %d", k)
			}
			f := float64(k)
			sum += f
			sumsq += f * f
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		se := math.Sqrt(mu / n)
		if math.Abs(mean-mu) > 6*se {
			t.Errorf("Po(%v) mean = %v (se %v)", mu, mean, se)
		}
		if math.Abs(variance-mu) > 0.05*mu+6*se {
			t.Errorf("Po(%v) variance = %v", mu, variance)
		}
	}
}

func TestPoissonSmallMuPMF(t *testing.T) {
	r := New(5)
	mu := 1.5
	const n = 200000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		k, _ := r.Poisson(mu)
		if k > 6 {
			k = 7
		}
		counts[k]++
	}
	var chi2 float64
	var tailP float64 = 1
	for k := 0; k <= 6; k++ {
		p := specialfn.PoissonPMF(k, mu)
		tailP -= p
		exp := p * n
		chi2 += math.Pow(float64(counts[k])-exp, 2) / exp
	}
	chi2 += math.Pow(float64(counts[7])-tailP*n, 2) / (tailP * n)
	if chi2 > chiSquareUpper999[5]+10 {
		t.Errorf("Poisson(1.5) chi-square = %v", chi2)
	}
}

func TestPoissonEdge(t *testing.T) {
	r := New(1)
	if k, err := r.Poisson(0); err != nil || k != 0 {
		t.Errorf("Po(0) = %d, %v", k, err)
	}
	for _, mu := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := r.Poisson(mu); err == nil {
			t.Errorf("Po(%v): expected error", mu)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{10, 0.3}, {64, 0.5}, {100, 0.05}, {1000, 0.02}, {5000, 0.4},
		{100000, 0.001}, {1 << 20, 0.25}, {333, 0.9},
	}
	for _, c := range cases {
		r := New(uint64(c.n)*31 + 17)
		const trials = 30000
		var sum, sumsq float64
		for i := 0; i < trials; i++ {
			k, err := r.Binomial(c.n, c.p)
			if err != nil {
				t.Fatal(err)
			}
			if k < 0 || k > c.n {
				t.Fatalf("Bin(%d,%v) draw %d out of range", c.n, c.p, k)
			}
			f := float64(k)
			sum += f
			sumsq += f * f
		}
		mean := sum / trials
		wantMean := float64(c.n) * c.p
		wantVar := wantMean * (1 - c.p)
		se := math.Sqrt(wantVar / trials)
		if math.Abs(mean-wantMean) > 6*se {
			t.Errorf("Bin(%d,%v) mean = %v want %v (se %v)", c.n, c.p, mean, wantMean, se)
		}
		variance := sumsq/trials - mean*mean
		if math.Abs(variance-wantVar) > 0.08*wantVar+6*se {
			t.Errorf("Bin(%d,%v) variance = %v want %v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestBinomialEdge(t *testing.T) {
	r := New(1)
	if k, err := r.Binomial(0, 0.5); err != nil || k != 0 {
		t.Errorf("Bin(0,.5) = %d, %v", k, err)
	}
	if k, err := r.Binomial(10, 0); err != nil || k != 0 {
		t.Errorf("Bin(10,0) = %d, %v", k, err)
	}
	if k, err := r.Binomial(10, 1); err != nil || k != 10 {
		t.Errorf("Bin(10,1) = %d, %v", k, err)
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := r.Binomial(10, p); err == nil {
			t.Errorf("Bin(10,%v): expected error", p)
		}
	}
	if _, err := r.Binomial(-1, 0.5); err == nil {
		t.Error("Bin(-1,.5): expected error")
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 0, 3, 6, 0.5}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.prob) != len(weights) {
		t.Fatalf("table size = %d", len(a.prob))
	}
	r := New(4242)
	const n = 210000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[a.Draw(r)]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	var chi2 float64
	for i, w := range weights {
		exp := w / total * n
		if w == 0 {
			if counts[i] != 0 {
				t.Errorf("zero-weight index %d drawn %d times", i, counts[i])
			}
			continue
		}
		chi2 += math.Pow(float64(counts[i])-exp, 2) / exp
	}
	if chi2 > chiSquareUpper999[4] {
		t.Errorf("alias chi-square = %v", chi2)
	}
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Error("empty weights: expected error")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Error("all-zero weights: expected error")
	}
	if _, err := NewAlias([]float64{1, -1}); err == nil {
		t.Error("negative weight: expected error")
	}
	if _, err := NewAlias([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN weight: expected error")
	}
}

func TestAliasSingleton(t *testing.T) {
	a, err := NewAlias([]float64{2.5})
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	for i := 0; i < 100; i++ {
		if a.Draw(r) != 0 {
			t.Fatal("singleton alias must always draw 0")
		}
	}
}

// BenchmarkZetaSampler times one draw at each α the suite draws at. At
// α = 2 both of the per-draw powers have integer exponents, which
// math.Pow takes on a cheap path, so it alone would hide their cost.
func BenchmarkZetaSampler(b *testing.B) {
	for _, alpha := range []float64{2.0, 2.2, 2.6} {
		b.Run(fmt.Sprintf("alpha=%.1f", alpha), func(b *testing.B) {
			r := New(1)
			z := NewZetaSampler(alpha)
			for i := 0; i < b.N; i++ {
				if _, err := z.Draw(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPoissonSmall(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		if _, err := r.Poisson(3.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		if _, err := r.Poisson(500); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinomialLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		if _, err := r.Binomial(1<<20, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAliasDraw(b *testing.B) {
	w := make([]float64, 1024)
	for i := range w {
		w[i] = float64(i + 1)
	}
	a, err := NewAlias(w)
	if err != nil {
		b.Fatal(err)
	}
	r := New(1)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += a.Draw(r)
	}
	_ = sink
}
