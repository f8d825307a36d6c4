// Package xrand provides the deterministic random variates used by the PALU
// generators and the synthetic traffic observatory: splittable xoshiro256**
// streams, exact zeta/Zipf sampling (Devroye rejection), Poisson and
// binomial deviates, and the alias method for arbitrary finite pmfs.
//
// Everything is reproducible: a generator is fully determined by its seed,
// and Split derives statistically independent child streams so that
// parallel Monte-Carlo shards do not overlap.
package xrand

import "math/bits"

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

// Uint64 returns the next 64 uniformly distributed bits. The step works
// on a local copy of the state, which keeps it within the compiler's
// inlining budget: a draw in a hot loop costs no call.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
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
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
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

// shuffleBlock is how many Fisher–Yates draws Shuffle takes before it
// applies their swaps: enough independent swaps for the CPU to overlap
// their cache misses, few enough that the indices stay in L1.
const shuffleBlock = 512

// Shuffle permutes s uniformly in place with the Fisher–Yates algorithm:
// for i = len(s)−1 down to 1 it draws j = r.Intn(i+1) and swaps s[i] and
// s[j]. The draws are taken a block at a time, ahead of their swaps, so
// the swaps' random accesses are not serialized behind the RNG's
// dependent chain; the draws, their order and the permutation are those
// of the one-loop form.
func Shuffle[T any](r *RNG, s []T) {
	var js [shuffleBlock]int
	for hi := len(s) - 1; hi > 0; {
		m := min(hi, shuffleBlock)
		for k := 0; k < m; k++ {
			js[k] = r.Intn(hi - k + 1)
		}
		for k, j := range js[:m] {
			i := hi - k
			s[i], s[j] = s[j], s[i]
		}
		hi -= m
	}
}
