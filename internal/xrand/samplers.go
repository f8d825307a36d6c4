package xrand

import (
	"errors"
	"math"
)

// errParam reports an out-of-range distribution parameter.
var errParam = errors.New("xrand: distribution parameter out of range")

// Zeta returns an exact draw from the zeta (discrete power-law, Zipf)
// distribution with pmf P[X=d] = d^{-alpha}/zeta(alpha), d >= 1, for
// alpha > 1. This is Devroye's rejection algorithm (Non-Uniform Random
// Variate Generation, 1986, ch. X.6): O(1) expected time for all alpha.
// It is a one-shot call of NewZetaSampler.
//
// The PALU core degree distribution (Section V: "the number of core nodes
// ... having degree d follows a power-law distribution of the form
// d^{-alpha}/zeta(alpha)") is sampled with this routine.
func (r *RNG) Zeta(alpha float64) (int, error) {
	z := NewZetaSampler(alpha)
	return z.Draw(r)
}

// ZetaCapped draws from the zeta(alpha) distribution conditioned on
// X <= maxD, by rejection against the unconditional sampler. Used to keep
// configuration-model degree sequences graphical on finite node sets.
// It is a one-shot call of NewZetaSampler.
func (r *RNG) ZetaCapped(alpha float64, maxD int) (int, error) {
	z := NewZetaSampler(alpha)
	return z.DrawCapped(r, maxD)
}

// ZetaSampler draws from the zeta distribution at one fixed alpha, as a
// loop of draws at one exponent does. It holds the per-alpha constants
// of Devroye's algorithm, α − 1, −1/(α − 1) and 2^(α−1), so each draw
// pays only for its own two powers. Its draws are RNG.Zeta's bit for bit
// and consume the RNG identically.
type ZetaSampler struct {
	alpha  float64
	am1    float64 // α − 1
	negInv float64 // −1/(α − 1)
	b, bm1 float64 // 2^(α−1) and 2^(α−1) − 1
}

// NewZetaSampler returns the fixed-alpha form of RNG.Zeta. An alpha
// outside the domain is reported by Draw.
func NewZetaSampler(alpha float64) ZetaSampler {
	z := ZetaSampler{alpha: alpha, am1: alpha - 1}
	z.negInv = -1 / z.am1
	z.b = math.Pow(2, z.am1)
	z.bm1 = z.b - 1
	return z
}

// Draw returns one zeta(alpha) draw from r.
func (z *ZetaSampler) Draw(r *RNG) (int, error) {
	if !(z.alpha > 1) || math.IsInf(z.alpha, 1) {
		return 0, errParam
	}
	for i := 0; i < 1<<20; i++ {
		u := r.Float64Open()
		v := r.Float64()
		x := math.Floor(math.Pow(u, z.negInv))
		if x < 1 || x > math.MaxInt64/2 || math.IsInf(x, 0) {
			continue // numeric underflow of u; retry
		}
		t := math.Pow(1+1/x, z.am1)
		if v*x*(t-1)/z.bm1 <= t/z.b {
			return int(x), nil
		}
	}
	return 0, errors.New("xrand: zeta sampler failed to accept")
}

// DrawCapped returns one zeta(alpha) draw from r conditioned on
// X <= maxD (RNG.ZetaCapped).
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
		return r.poissonKnuth(mu), nil
	default:
		return r.poissonPTRS(mu), nil
	}
}

func (r *RNG) poissonKnuth(mu float64) int {
	limit := math.Exp(-mu)
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
