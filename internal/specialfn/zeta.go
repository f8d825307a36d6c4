// Package specialfn provides the special functions required by the PALU
// reproduction: the Riemann zeta function ζ(s), the Hurwitz zeta function
// ζ(s,q), log-factorials, and numerically stable Poisson helpers.
//
// The paper (Section IV) relies on MATLAB's built-in zeta(x) over the
// experimentally observed exponent range 1.5 ≤ α ≤ 3; the Clauset–Shalizi–
// Newman baseline additionally needs the Hurwitz generalization for
// truncated discrete power laws. Everything here is stdlib-only and
// implemented with Euler–Maclaurin summation, which converges rapidly for
// the s > 1 regime used throughout the models.
package specialfn

import (
	"errors"
	"math"
)

// ErrDomain is returned when a function is evaluated outside the domain on
// which this package guarantees convergence.
var ErrDomain = errors.New("specialfn: argument outside supported domain")

// Bernoulli numbers B2, B4, ... B16 used by the Euler–Maclaurin tail.
// B2k appear in the correction terms s(s+1)...(s+2k-2) * B2k/(2k)! * N^{-s-2k+1}.
var bernoulli2k = [...]float64{
	1.0 / 6.0,       // B2
	-1.0 / 30.0,     // B4
	1.0 / 42.0,      // B6
	-1.0 / 30.0,     // B8
	5.0 / 66.0,      // B10
	-691.0 / 2730.0, // B12
	7.0 / 6.0,       // B14
	-3617.0 / 510.0, // B16
}

// emCutoff is the number of directly summed terms before switching to the
// Euler–Maclaurin tail. Larger values increase accuracy for s close to 1.
const emCutoff = 32

// Zeta returns the Riemann zeta function ζ(s) for s > 1.
//
// Accuracy is ~1e-13 relative over s ∈ [1.05, 60]; the paper's operating
// range is 1.5 ≤ s ≤ 3, where ζ(s) ∈ [ζ(3) ≈ 1.202, ζ(1.5) ≈ 2.612].
func Zeta(s float64) (float64, error) {
	if math.IsNaN(s) || s <= 1 {
		return math.NaN(), ErrDomain
	}
	return HurwitzZeta(s, 1)
}

// HurwitzZeta returns the Hurwitz zeta function
//
//	ζ(s, q) = Σ_{n=0}^∞ (n+q)^{-s}
//
// for s > 1 and q > 0. ζ(s, 1) is the Riemann zeta function. The modified
// Zipf–Mandelbrot normalization over infinite support is ζ(α, 1+δ), and the
// CSN discrete MLE uses ζ(α, xmin). It is a one-shot call of NewHurwitz.
func HurwitzZeta(s, q float64) (float64, error) {
	h := NewHurwitz(q)
	return h.Zeta(s)
}

// Hurwitz evaluates ζ(s, q) for a fixed q at many s, as a likelihood
// maximization over α does. It caches the base-only work of math.Pow for
// the emCutoff+1 bases q+n it raises, so each s pays only the
// exponent-dependent part of each power, and every power is math.Pow's
// result bit for bit.
type Hurwitz struct {
	q    float64
	base [emCutoff + 1]powBase // q+0, ..., q+emCutoff
}

// NewHurwitz returns the fixed-q form of HurwitzZeta. A q outside the
// domain is reported by Zeta.
func NewHurwitz(q float64) Hurwitz {
	h := Hurwitz{q: q}
	for n := range h.base {
		h.base[n] = newPowBase(q + float64(n))
	}
	return h
}

// Zeta returns ζ(s, q) for s > 1.
func (h *Hurwitz) Zeta(s float64) (float64, error) {
	z, _, _, err := h.ZetaDerivs(s)
	return z, err
}

// factorial2k holds (2k)! for k = 1..8, the denominators of the
// Euler–Maclaurin corrections.
var factorial2k = [len(bernoulli2k)]float64{
	2, 24, 720, 40320, 3628800, 479001600, 87178291200, 20922789888000,
}

// ZetaDerivs returns ζ(s, q) and its first two derivatives in s, ∂ζ/∂s
// and ∂²ζ/∂s², for s > 1, from one Euler–Maclaurin pass. Each head
// term (q+n)^{-s} contributes −ln(q+n)·(q+n)^{-s} and ln²(q+n)·(q+n)^{-s}
// through the cached ln(q+n); the tail and Bernoulli corrections are
// differentiated in s through their powers of a = q+emCutoff and the
// rising factorial. z is Zeta(s): Zeta is this pass with the
// derivatives dropped.
func (h *Hurwitz) ZetaDerivs(s float64) (z, dz, d2z float64, err error) {
	if math.IsNaN(s) || math.IsNaN(h.q) || s <= 1 || h.q <= 0 {
		return math.NaN(), math.NaN(), math.NaN(), ErrDomain
	}
	// Direct summation of the head.
	var head, head1, head2 float64
	for n := 0; n < emCutoff; n++ {
		b := &h.base[n]
		p := b.pow(-s)
		head += p
		lp := b.logx * p // logx is 0 for the base 1, as ln 1 is
		head1 -= lp
		head2 += b.logx * lp
	}
	a := &h.base[emCutoff] // first point not in the head
	L := a.logx
	// Euler–Maclaurin tail:
	//   Σ_{n=N}^∞ (q+n)^{-s} ≈ a^{1-s}/(s-1) + a^{-s}/2 + Σ_k corr_k
	// with corr_k = B_{2k}/(2k)! * s(s+1)...(s+2k-2) * a^{-s-2k+1}.
	// With u = 1/(s−1), d/ds[a^{1-s}·u] = −a^{1-s}·(L·u + u²) and
	// d²/ds² = a^{1-s}·(L²·u + 2L·u² + 2u³), L = ln a.
	p1, p0 := a.pow(1-s), a.pow(-s)
	tail := p1/(s-1) + 0.5*p0
	u := 1 / (s - 1)
	tail1 := -p1*(L*u+u*u) - 0.5*L*p0
	tail2 := p1*(L*L*u+2*L*u*u+2*u*u*u) + 0.5*L*L*p0
	// rising factorial R = s(s+1)...(s+2k-2) and its derivatives R′, R″,
	// built incrementally; the (2k)! denominator is in factorial2k. A
	// correction C·R·a^{-s-2k+1} has derivatives C·(R′ − L·R)·a^{...} and
	// C·(R″ − 2L·R′ + L²·R)·a^{...}.
	rising, rising1, rising2 := s, 1.0, 0.0 // k=1: product of 1 term
	pw := a.pow(-s - 1)
	inva2 := 1 / (a.x * a.x)
	for k := 0; k < len(bernoulli2k); k++ {
		c := bernoulli2k[k] / factorial2k[k]
		term := c * rising * pw
		tail += term
		tail1 += c * (rising1 - L*rising) * pw
		tail2 += c * (rising2 - 2*L*rising1 + L*L*rising) * pw
		// <= also stops a tail that underflowed to 0 (huge s), before the
		// rising factorial overflows and 0·Inf turns it into NaN.
		if math.Abs(term) <= 1e-18*math.Abs(tail) {
			break
		}
		// extend the rising factorial by two more factors m = m1·m2 for
		// the next k: (Rm)′ = R′m + R·m′ and (Rm)″ = R″m + 2R′m′ + 2R,
		// with m′ = m1 + m2 and m″ = 2.
		m1, m2 := s+float64(2*k+1), s+float64(2*k+2)
		m, dm := m1*m2, m1+m2
		rising2 = rising2*m + 2*rising1*dm + 2*rising
		rising1 = rising1*m + rising*dm
		rising *= m
		pw *= inva2
	}
	return head + tail, head1 + tail1, head2 + tail2, nil
}

// powBase is math.Pow with its base fixed. On every platform but s390x
// (amd64 included) math.Pow is the stdlib's pure-Go pow, and for a finite
// base x > 0, x ≠ 1,
// its general path spends Log(x) and Frexp(x) on the base alone. powBase
// computes those once; pow runs the rest of that algorithm unchanged, so
// it returns math.Pow(x, y) bit for bit.
type powBase struct {
	x       float64
	logx    float64 // math.Log(x)
	frac    float64 // x = frac · 2^exp (math.Frexp)
	exp     int
	general bool // x takes pow's general path: finite, > 0 and ≠ 1
}

func newPowBase(x float64) powBase {
	b := powBase{x: x, general: x > 0 && x != 1 && !math.IsInf(x, 1)}
	if b.general {
		b.logx = math.Log(x)
		b.frac, b.exp = math.Frexp(x)
	}
	return b
}

// pow returns math.Pow(b.x, y). Exponents pow answers before its general
// path (0, 1, ±0.5, NaN, ±Inf, |y| ≥ 2^63) go to math.Pow itself.
func (b *powBase) pow(y float64) float64 {
	if !b.general || y == 0 || y == 1 || y == 0.5 || y == -0.5 || math.IsNaN(y) || math.IsInf(y, 0) {
		return math.Pow(b.x, y)
	}
	yi, yf := math.Modf(math.Abs(y))
	if yi >= 1<<63 {
		return math.Pow(b.x, y)
	}
	// ans = a1 * 2**ae (= 1 for now).
	a1 := 1.0
	ae := 0
	// ans *= x**yf
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * b.logx)
	}
	// ans *= x**yi by successive squarings of x according to the bits of
	// yi, accumulating powers of two into ae.
	x1, xe := b.frac, b.exp
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// xe would overflow the shift below; ae += xe is already a
			// lower bound beyond a float64 exponent, so Ldexp gives 0/Inf.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	// ans = a1*2**ae; for y < 0 invert a1 and negate ae first.
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}

// MustZeta is Zeta for statically known in-domain arguments; it panics on a
// domain error. It is intended for package-internal constants and tests.
func MustZeta(s float64) float64 {
	z, err := Zeta(s)
	if err != nil {
		panic(err)
	}
	return z
}

// LogFactorial returns ln(d!) using math.Lgamma. Exact for d ≤ 20 via a
// precomputed table to avoid rounding in the Poisson pmf at small degrees.
func LogFactorial(d int) float64 {
	if d < 0 {
		return math.NaN()
	}
	if d < len(logFactTable) {
		return logFactTable[d]
	}
	lg, _ := math.Lgamma(float64(d) + 1)
	return lg
}

var logFactTable = func() [21]float64 {
	var t [21]float64
	f := 1.0
	for i := 1; i <= 20; i++ {
		f *= float64(i)
		t[i] = math.Log(f)
	}
	return t
}()

// PoissonPMF returns P[Po(mu) = k] computed in log space for stability at
// large k or mu.
func PoissonPMF(k int, mu float64) float64 {
	if k < 0 || mu < 0 {
		return 0
	}
	if mu == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	return math.Exp(float64(k)*math.Log(mu) - mu - LogFactorial(k))
}

// Expm1Ratio returns (1 + x - e^{-x}), the expected observed size factor of
// a PALU unattached star per central node: 1 central + λ leaves − e^{−λ}
// invisible isolated centrals (Section III.A constraint and Section IV's V).
// Computed with expm1 for small-x stability.
func Expm1Ratio(x float64) float64 {
	// 1 + x - e^{-x} = x + (1 - e^{-x}) = x - expm1(-x)
	return x - math.Expm1(-x)
}

// MomentRatio returns M(mu) = mu*(e^mu − 1)/(e^mu − 1 − mu), the corrected
// moment ratio of Section IV.B (paper erratum E1, see DESIGN.md). M is
// monotone increasing on (0, ∞) with range (2, ∞) and M(mu) → 2 + mu/3 as
// mu → 0, matching the Taylor behaviour quoted in the paper.
func MomentRatio(mu float64) float64 {
	if mu < 0 {
		return math.NaN()
	}
	if mu < 1e-8 {
		return 2 + mu/3
	}
	if mu < 1e-4 {
		// Series to O(mu^2) to avoid cancellation: 2 + mu/3 + mu^2/18.
		return 2 + mu/3 + mu*mu/18
	}
	em := math.Expm1(mu)
	return mu * em / (em - mu)
}

// SolveMomentRatio inverts MomentRatio: given an observed ratio m > 2 it
// returns mu with M(mu) = m. Ratios at or below 2 correspond to the mu → 0
// boundary and return 0. Inversion is by bisection on a bracketed interval;
// M is strictly monotone so the root is unique.
func SolveMomentRatio(m float64) (float64, error) {
	if math.IsNaN(m) {
		return math.NaN(), ErrDomain
	}
	if m <= 2 {
		return 0, nil
	}
	lo, hi := 0.0, 1.0
	for MomentRatio(hi) < m {
		hi *= 2
		if hi > 1e9 {
			return math.NaN(), errors.New("specialfn: moment ratio too large to invert")
		}
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if MomentRatio(mid) < m {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-13*(1+hi) {
			break
		}
	}
	return 0.5 * (lo + hi), nil
}
