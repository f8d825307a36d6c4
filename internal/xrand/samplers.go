package xrand

import (
	"errors"
	"math"
)

// errParam reports an out-of-range distribution parameter.
var errParam = errors.New("xrand: distribution parameter out of range")

// ZetaSampler draws from the zeta (discrete power-law, Zipf)
// distribution with pmf P[X=d] = d^{-alpha}/zeta(alpha), d >= 1, for one
// fixed alpha > 1. This is Devroye's rejection algorithm (Non-Uniform
// Random Variate Generation, 1986, ch. X.6): O(1) expected time for all
// alpha. A trial turns a uniform u into the candidate x = ⌊u^{−1/(α−1)}⌋
// and accepts it by a test on t = (1+1/x)^(α−1).
//
// NewZetaSampler tabulates the small candidates once per alpha: x = k
// for a u strictly inside (c_{k+1}·(1+g), c_k·(1−g)), where
// c_k = k^{−(α−1)} and k = 1..zetaTableLen, and the row holds t. The
// guard g = zetaGuard is far wider than math.Pow's rounding, so a row
// answers as the two powers would. A u in a guard band or below the
// table takes the powers. The draws, and the uniforms they consume, are
// the per-draw algorithm's bit for bit.
//
// The PALU core degree distribution (Section V: "the number of core nodes
// ... having degree d follows a power-law distribution of the form
// d^{-alpha}/zeta(alpha)") is sampled with it.
type ZetaSampler struct {
	alpha  float64
	am1    float64 // α − 1
	negInv float64 // −1/(α − 1)
	b, bm1 float64 // 2^(α−1) and 2^(α−1) − 1
	rows   [zetaTableLen]zetaRow
	nrows  int // rows in use
}

const (
	// zetaTableLen is the largest candidate x the table answers.
	zetaTableLen = 64
	// zetaGuard is the relative width of the guard band on each side of
	// a boundary c_k. It keeps u^{−1/(α−1)} a relative g/(α−1) or more
	// from the integer k, at least 2⁻³⁶ below c_1 (a tabled c_2 means
	// α−1 ≤ 60), against math.Pow's few ulps. Next to c_1 = 1 the power
	// of a u < 1 is never rounded below 1.
	zetaGuard = 0x1p-30
	// zetaTableEnd is the smallest lower bound a row may have. The table
	// ends at the first boundary below it, so each bound it uses is a
	// normal float, accurate to an ulp after the guard multiply;
	// Float64Open never returns a u below 2⁻⁵³.
	zetaTableEnd = 0x1p-60
)

// zetaRow is the table row of candidate x = k: a u in (lo, hi) has
// ⌊u^{−1/(α−1)}⌋ = k, and t = (1+1/k)^(α−1).
type zetaRow struct {
	lo, hi, t float64
}

// NewZetaSampler returns the sampler for alpha. An alpha outside the
// domain is reported by Draw.
func NewZetaSampler(alpha float64) ZetaSampler {
	z := ZetaSampler{alpha: alpha, am1: alpha - 1}
	z.negInv = -1 / z.am1
	z.b = math.Pow(2, z.am1)
	z.bm1 = z.b - 1
	if !(alpha > 1) || math.IsInf(alpha, 1) {
		return z
	}
	hi := 1.0 // c_1
	for k := 1; k <= zetaTableLen; k++ {
		c := math.Pow(float64(k+1), -z.am1) // c_{k+1}
		z.rows[k-1] = zetaRow{
			lo: max(c, zetaTableEnd) * (1 + zetaGuard),
			hi: hi * (1 - zetaGuard),
			t:  math.Pow(1+1/float64(k), z.am1),
		}
		z.nrows = k
		if c < zetaTableEnd {
			break
		}
		hi = c
	}
	return z
}

// lookup returns ⌊u^{−1/(α−1)}⌋ and its t from the table, or x = 0 when
// u lies in a guard band or below the table. The rows' bounds fall with
// k, so the first row whose lo is below u is the only one that can
// hold it.
func (z *ZetaSampler) lookup(u float64) (x, t float64) {
	for i, row := range z.rows[:z.nrows] {
		if u > row.lo {
			if u < row.hi {
				return float64(i + 1), row.t
			}
			break
		}
	}
	return 0, 0
}

// Draw returns one zeta(alpha) draw from r.
func (z *ZetaSampler) Draw(r *RNG) (int, error) {
	if !(z.alpha > 1) || math.IsInf(z.alpha, 1) {
		return 0, errParam
	}
	for i := 0; i < 1<<20; i++ {
		u := r.Float64Open()
		v := r.Float64()
		x, t := z.lookup(u)
		if x == 0 {
			x = math.Floor(math.Pow(u, z.negInv))
			if x < 1 || x > math.MaxInt64/2 || math.IsInf(x, 0) {
				continue // numeric underflow of u; retry
			}
			t = math.Pow(1+1/x, z.am1)
		}
		if v*x*(t-1)/z.bm1 <= t/z.b {
			return int(x), nil
		}
	}
	return 0, errors.New("xrand: zeta sampler failed to accept")
}

// DrawCapped returns one zeta(alpha) draw from r conditioned on
// X <= maxD, by rejection against Draw. Used to keep configuration-model
// degree sequences graphical on finite node sets.
func (z *ZetaSampler) DrawCapped(r *RNG, maxD int) (int, error) {
	if maxD < 1 {
		return 0, errParam
	}
	for i := 0; i < 1<<20; i++ {
		d, err := z.Draw(r)
		if err != nil {
			return 0, err
		}
		if d <= maxD {
			return d, nil
		}
	}
	return 0, errors.New("xrand: capped zeta sampler failed to accept")
}

// Poisson returns a Po(mu) variate. Knuth's product method is used for
// small means; for mu >= 30 the PTRS transformed-rejection method of
// Hörmann (1993) provides O(1) expected time.
func (r *RNG) Poisson(mu float64) (int, error) {
	switch {
	case mu < 0 || math.IsNaN(mu) || math.IsInf(mu, 1):
		return 0, errParam
	case mu == 0:
		return 0, nil
	case mu < 30:
		return r.poissonKnuth(math.Exp(-mu)), nil
	default:
		return r.poissonPTRS(mu), nil
	}
}

// PoissonSampler draws Po(mu) at one fixed mean, as a loop of draws at
// one mean does. It holds exp(−mu), the bound of Knuth's product method,
// so a small-mean draw pays only for its uniforms. Its draws are
// RNG.Poisson's bit for bit and consume the RNG identically.
type PoissonSampler struct {
	mu, limit float64 // limit = exp(−mu)
}

// NewPoissonSampler returns the fixed-mean form of RNG.Poisson. A mean
// outside the domain is reported by Draw.
func NewPoissonSampler(mu float64) PoissonSampler {
	return PoissonSampler{mu: mu, limit: math.Exp(-mu)}
}

// Draw returns one Po(mu) draw from r.
func (p *PoissonSampler) Draw(r *RNG) (int, error) {
	if p.mu > 0 && p.mu < 30 {
		return r.poissonKnuth(p.limit), nil
	}
	return r.Poisson(p.mu)
}

// poissonKnuth is Knuth's product method: the number of uniforms
// multiplied before their product falls to limit = exp(−mu).
func (r *RNG) poissonKnuth(limit float64) int {
	k := 0
	prod := r.Float64()
	for prod > limit {
		k++
		prod *= r.Float64()
	}
	return k
}

// poissonPTRS implements Hörmann's PTRS transformed rejection sampler.
func (r *RNG) poissonPTRS(mu float64) int {
	b := 0.931 + 2.53*math.Sqrt(mu)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMu := math.Log(mu)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mu + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logMu-mu-lg {
			return int(k)
		}
	}
}

// Binomial returns a Bin(n, p) variate. Small n uses direct Bernoulli
// summation; small mean uses inversion; otherwise the BTRS transformed
// rejection sampler (Hörmann 1993) handles the large-mean regime that
// arises when thinning supernode degrees (Section V: Bin(d, p) ~ dp).
func (r *RNG) Binomial(n int, p float64) (int, error) {
	if n < 0 || p < 0 || p > 1 || math.IsNaN(p) {
		return 0, errParam
	}
	if n == 0 || p == 0 {
		return 0, nil
	}
	if p == 1 {
		return n, nil
	}
	if p > 0.5 {
		k, err := r.Binomial(n, 1-p)
		return n - k, err
	}
	np := float64(n) * p
	switch {
	case n <= 64:
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k, nil
	case np < 10:
		return r.binomialInversion(n, p), nil
	default:
		return r.binomialBTRS(n, p), nil
	}
}

// binomialInversion uses sequential CDF inversion; expected O(np) time.
func (r *RNG) binomialInversion(n int, p float64) int {
	q := 1 - p
	s := p / q
	base := float64(n) * math.Log(q) // log Pr[X = 0]
	for {
		f := math.Exp(base)
		u := r.Float64()
		for k := 0; k <= n; k++ {
			if u < f {
				return k
			}
			u -= f
			f *= s * float64(n-k) / float64(k+1)
		}
		// u exceeded total mass by rounding; redraw.
	}
}

// binomialBTRS implements Hörmann's BTRS sampler for n*p >= 10, p <= 1/2.
func (r *RNG) binomialBTRS(n int, p float64) int {
	q := 1 - p
	nf := float64(n)
	spq := math.Sqrt(nf * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b
	urvr := 0.86 * vr
	alpha := (2.83 + 5.1/b) * spq
	lpq := math.Log(p / q)
	m := math.Floor(float64(n+1) * p)
	lgM, _ := math.Lgamma(m + 1)
	lgNM, _ := math.Lgamma(nf - m + 1)
	h := lgM + lgNM
	for {
		v := r.Float64()
		var u float64
		if v <= urvr {
			u = v/vr - 0.43
			return int(math.Floor((2*a/(0.5-math.Abs(u))+b)*u + c))
		}
		if v >= vr {
			u = r.Float64() - 0.5
		} else {
			u = v/vr - 0.93
			u = math.Copysign(0.5, u) - u
			v = vr * r.Float64()
		}
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if k < 0 || k > nf {
			continue
		}
		v = v * alpha / (a/(us*us) + b)
		lgK, _ := math.Lgamma(k + 1)
		lgNK, _ := math.Lgamma(nf - k + 1)
		if math.Log(v) <= h-lgK-lgNK+(k-m)*lpq {
			return int(k)
		}
	}
}

// Alias is a Walker/Vose alias table for O(1) sampling from an arbitrary
// finite discrete distribution. It is the ablation counterpart to the
// Devroye zeta sampler (truncated support) and drives the synthetic
// traffic observatory's per-link packet multiplicities.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from non-negative weights. At least one
// weight must be positive.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, errors.New("xrand: empty weight vector")
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 1) {
			return nil, errParam
		}
		total += w
	}
	if total <= 0 {
		return nil, errors.New("xrand: all weights zero")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a, nil
}

// Draw returns an index sampled in proportion to the construction weights.
func (a *Alias) Draw(r *RNG) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}
