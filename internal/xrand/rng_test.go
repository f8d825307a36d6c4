package xrand

import (
	"math"
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
		New(seed).Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
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
