// Package xrand provides the deterministic random variates used by the PALU
// generators and the synthetic traffic observatory: splittable xoshiro256**
// streams, exact zeta/Zipf sampling (Devroye rejection), Poisson and
// binomial deviates, and the alias method for arbitrary finite pmfs.
//
// Everything is reproducible: a generator is fully determined by its seed,
// and Split derives statistically independent child streams so that
// parallel Monte-Carlo shards do not overlap.
package xrand

// RNG is a xoshiro256** pseudo-random generator with splitmix64 seeding.
// The zero value is not usable; construct with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via splitmix64, which
// guarantees a non-degenerate internal state for every seed value.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives a child generator whose stream is independent of the
// parent's subsequent output. It advances the parent by one draw.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa3cc1d5f8b3a92d1)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform variate in the open interval (0, 1),
// suitable for logarithms and inverse-CDF transforms.
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection for unbiased bounded integers.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive bound")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Shuffle permutes the first n elements using the Fisher-Yates algorithm,
// invoking swap(i, j) for each exchange.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
