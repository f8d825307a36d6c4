package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical outputs of 1000", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Errorf("seed 0 stream looks degenerate: %d distinct of 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
	for i := 0; i < 100000; i++ {
		u := r.Float64Open()
		if u <= 0 || u >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", u)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 1 << 20
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	// Standard error of the mean is (1/sqrt(12))/sqrt(n) ~ 2.8e-4.
	if math.Abs(mean-0.5) > 5*2.9e-4 {
		t.Errorf("uniform mean = %v, want 0.5 +- 1.4e-3", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/7.0) > 6*math.Sqrt(n/7.0) {
			t.Errorf("Intn bucket %d count %d deviates from uniform", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// The child stream must differ from the parent's continued stream.
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams overlap: %d identical of 1000", same)
	}
}

// TestPermIsPermutation checks that Shuffle of the identity yields a
// permutation of [0, n).
func TestPermIsPermutation(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		Shuffle(New(seed), p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refUint64 is the xoshiro256** step as its reference implementation
// writes it, updating the state in place.
func refUint64(s *[4]uint64) uint64 {
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// TestUint64MatchesReference: Uint64 gives the reference step's outputs
// and states, from the reference's own test state and from seeded ones.
func TestUint64MatchesReference(t *testing.T) {
	starts := []*RNG{{s: [4]uint64{1, 2, 3, 4}}, New(0), New(42), New(math.MaxUint64)}
	for _, r := range starts {
		ref := r.s
		for i := 0; i < 10000; i++ {
			if got, want := r.Uint64(), refUint64(&ref); got != want || r.s != ref {
				t.Fatalf("draw %d: %#x, reference %#x", i, got, want)
			}
		}
	}
}

// refShuffle is the one-loop Fisher–Yates shuffle Shuffle replaced: each
// draw is followed at once by its swap.
func refShuffle(r *RNG, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// TestShuffleMatchesOneLoop: the block-drawn Shuffle makes the one-loop
// form's draws, gives its permutation and leaves the RNG in its state,
// at the edge lengths, at block boundaries and at a large n.
func TestShuffleMatchesOneLoop(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, shuffleBlock, shuffleBlock + 1, shuffleBlock + 2, 2*shuffleBlock + 1, 1 << 20} {
		got, want := make([]int32, n), make([]int32, n)
		for i := range got {
			got[i], want[i] = int32(i), int32(i)
		}
		a, b := New(uint64(n)+5), New(uint64(n)+5)
		Shuffle(a, got)
		refShuffle(b, n, func(i, j int) { want[i], want[j] = want[j], want[i] })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: position %d holds %d, one-loop shuffle %d", n, i, got[i], want[i])
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Errorf("n=%d: Shuffle and the one-loop shuffle leave the RNG in different states", n)
		}
	}
}

// refMul64 is the hand-rolled 128-bit product Intn used before
// bits.Mul64.
func refMul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// TestMul64MatchesHandRolled: bits.Mul64, which Intn's rejection step
// uses, gives the hand-rolled product's bits on edge values and a
// random sweep.
func TestMul64MatchesHandRolled(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	check := func(a, b uint64) {
		hi, lo := bits.Mul64(a, b)
		wantHi, wantLo := refMul64(a, b)
		if hi != wantHi || lo != wantLo {
			t.Fatalf("%#x × %#x: bits.Mul64 (%#x, %#x), hand-rolled (%#x, %#x)", a, b, hi, lo, wantHi, wantLo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := New(11)
	for i := 0; i < 100000; i++ {
		check(r.Uint64(), r.Uint64())
	}
}

func TestBernoulliEdge(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

// BenchmarkShuffle shuffles a pass-sized slice of 12-byte records, the
// shape of netgen's packets.
func BenchmarkShuffle(b *testing.B) {
	type rec struct{ a, b, c uint32 }
	s := make([]rec, 1<<20)
	r := New(1)
	b.SetBytes(int64(len(s)) * 12)
	for b.Loop() {
		Shuffle(r, s)
	}
}
