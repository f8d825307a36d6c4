package hist

import (
	"math"
	"testing"
	"testing/quick"

	"hybridplaw/internal/xrand"
)

func TestBinEdges(t *testing.T) {
	// Bin 0 holds exactly degree 1; bin i holds (2^{i-1}, 2^i].
	cases := []struct{ d, bin int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4},
		{17, 5}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := BinIndex(c.d); got != c.bin {
			t.Errorf("BinIndex(%d) = %d, want %d", c.d, got, c.bin)
		}
	}
	for i := 0; i < 20; i++ {
		if BinUpper(i) != 1<<uint(i) {
			t.Errorf("BinUpper(%d) = %d", i, BinUpper(i))
		}
	}
	if BinLower(0) != 0 || BinLower(1) != 1 || BinLower(4) != 8 {
		t.Error("BinLower edges wrong")
	}
}

func TestBinPartitionProperty(t *testing.T) {
	// Every degree belongs to exactly one bin and bin edges are consistent.
	prop := func(raw uint32) bool {
		d := int(raw%1000000) + 1
		i := BinIndex(d)
		return d > BinLower(i) && d <= BinUpper(i)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := New()
	if err := h.Add(1); err != nil {
		t.Fatal(err)
	}
	if err := h.AddN(4, 3); err != nil {
		t.Fatal(err)
	}
	if h.Total() != 4 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Count(4) != 3 || h.Count(2) != 0 {
		t.Error("counts wrong")
	}
	if h.MaxDegree() != 4 {
		t.Errorf("MaxDegree = %d", h.MaxDegree())
	}
	if got := h.Probability(1); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("p(1) = %v", got)
	}
	if got := h.FractionDegreeOne(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("D(1) = %v", got)
	}
}

func TestHistogramErrors(t *testing.T) {
	h := New()
	if err := h.Add(0); err == nil {
		t.Error("degree 0: expected error")
	}
	if err := h.Add(-3); err == nil {
		t.Error("negative degree: expected error")
	}
	if err := h.AddN(2, -1); err == nil {
		t.Error("negative count: expected error")
	}
	if err := h.AddN(2, 0); err != nil {
		t.Error("zero count should be a no-op")
	}
	if _, err := FromCounts(map[int]int64{0: 5}); err == nil {
		t.Error("FromCounts with degree 0: expected error")
	}
	if _, err := FromValues([]int64{1, -2}); err == nil {
		t.Error("FromValues with negative: expected error")
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := New()
	if h.MaxDegree() != 0 {
		t.Error("empty MaxDegree should be 0")
	}
	if !math.IsNaN(h.Probability(1)) {
		t.Error("empty probability should be NaN")
	}
	if _, err := h.Pool(); err != ErrEmpty {
		t.Errorf("Pool on empty: %v", err)
	}
}

func TestCumulative(t *testing.T) {
	h, err := FromCounts(map[int]int64{1: 5, 2: 3, 8: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.CumulativeAt(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(1) = %v", got)
	}
	if got := h.CumulativeAt(4); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("P(4) = %v", got)
	}
	if got := h.CumulativeAt(100); math.Abs(got-1) > 1e-12 {
		t.Errorf("P(100) = %v", got)
	}
}

func TestPoolMatchesManual(t *testing.T) {
	// degrees: 1 x10, 2 x4, 3 x3, 4 x1, 7 x2  (total 20)
	h, err := FromCounts(map[int]int64{1: 10, 2: 4, 3: 3, 4: 1, 7: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Pool()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.2, 0.2, 0.1} // bins {1},{2},{3,4},{5..8}
	if len(p.D) != len(want) {
		t.Fatalf("bins = %d, want %d (D=%v)", len(p.D), len(want), p.D)
	}
	for i := range want {
		if math.Abs(p.D[i]-want[i]) > 1e-12 {
			t.Errorf("D[%d] = %v, want %v", i, p.D[i], want[i])
		}
	}
}

func TestPoolMassConservation(t *testing.T) {
	prop := func(seed uint64) bool {
		r := xrand.New(seed)
		h := New()
		for i := 0; i < 500; i++ {
			if err := h.Add(r.Intn(5000) + 1); err != nil {
				return false
			}
		}
		p, err := h.Pool()
		if err != nil {
			return false
		}
		return math.Abs(p.Mass()-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPoolEqualsDifferentialCumulative(t *testing.T) {
	// D(di) must equal P(2^i) - P(2^{i-1}).
	h, err := FromCounts(map[int]int64{1: 7, 2: 2, 5: 4, 30: 1, 100: 6})
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Pool()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.NumBins(); i++ {
		var lowP float64
		if i > 0 {
			lowP = h.CumulativeAt(BinUpper(i - 1))
		}
		want := h.CumulativeAt(BinUpper(i)) - lowP
		if math.Abs(p.D[i]-want) > 1e-12 {
			t.Errorf("bin %d: D = %v, P-diff = %v", i, p.D[i], want)
		}
	}
}

func TestMergeHistograms(t *testing.T) {
	a, _ := FromCounts(map[int]int64{1: 2, 3: 1})
	b, _ := FromCounts(map[int]int64{3: 4, 10: 5})
	a.Merge(b)
	if a.Total() != 12 || a.Count(3) != 5 {
		t.Errorf("merge: total=%d count3=%d", a.Total(), a.Count(3))
	}
}

func TestSupportSorted(t *testing.T) {
	h, _ := FromCounts(map[int]int64{9: 1, 2: 1, 100: 1, 5: 1})
	s := h.Support()
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatalf("support not sorted: %v", s)
		}
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	h, _ := FromCounts(map[int]int64{1: 3, 4: 9, 77: 8})
	var sum float64
	for _, d := range h.Support() {
		sum += h.Probability(d)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestEnsembleMeanSigma(t *testing.T) {
	e := NewEnsemble()
	// Two windows with known pooled distributions of equal length.
	h1, _ := FromCounts(map[int]int64{1: 1, 2: 1}) // D = [0.5, 0.5]
	h2, _ := FromCounts(map[int]int64{1: 3, 2: 1}) // D = [0.75, 0.25]
	p1, _ := h1.Pool()
	p2, _ := h2.Pool()
	e.Add(p1)
	e.Add(p2)
	if e.Windows() != 2 {
		t.Fatalf("Windows = %d", e.Windows())
	}
	mean := e.Mean()
	if math.Abs(mean[0]-0.625) > 1e-12 || math.Abs(mean[1]-0.375) > 1e-12 {
		t.Errorf("mean = %v", mean)
	}
	sig := e.Sigma()
	// sample std of {0.5, 0.75} = 0.1767767...
	want := math.Sqrt(0.03125)
	if math.Abs(sig[0]-want) > 1e-12 {
		t.Errorf("sigma = %v want %v", sig[0], want)
	}
}

func TestEnsembleRaggedWindows(t *testing.T) {
	e := NewEnsemble()
	short, _ := FromCounts(map[int]int64{1: 1})       // 1 bin
	long, _ := FromCounts(map[int]int64{1: 1, 16: 1}) // 5 bins
	ps, _ := short.Pool()
	pl, _ := long.Pool()
	e.Add(ps)
	e.Add(pl)
	mean := e.Mean()
	if len(mean) != 5 {
		t.Fatalf("bins = %d, want 5", len(mean))
	}
	// Bin 4: window one contributed implicit 0, window two 0.5 → mean 0.25.
	if math.Abs(mean[4]-0.25) > 1e-12 {
		t.Errorf("mean[4] = %v", mean[4])
	}
	// Bin 0: 1.0 and 0.5 → 0.75.
	if math.Abs(mean[0]-0.75) > 1e-12 {
		t.Errorf("mean[0] = %v", mean[0])
	}
}

func TestEnsembleMassPreserved(t *testing.T) {
	// Mean pooled distribution over windows still sums to ~1.
	e := NewEnsemble()
	r := xrand.New(42)
	for w := 0; w < 10; w++ {
		h := New()
		for i := 0; i < 300; i++ {
			_ = h.Add(r.Intn(2000) + 1)
		}
		p, err := h.Pool()
		if err != nil {
			t.Fatal(err)
		}
		e.Add(p)
	}
	var sum float64
	for _, m := range e.Mean() {
		sum += m
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("mean mass = %v", sum)
	}
}

func BenchmarkPool(b *testing.B) {
	r := xrand.New(1)
	h := New()
	for i := 0; i < 100000; i++ {
		d, _ := r.Zeta(2.0)
		_ = h.Add(d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Pool(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	r := xrand.New(1)
	h := New()
	for i := 0; i < b.N; i++ {
		_ = h.Add(r.Intn(10000) + 1)
	}
}

// TestPoolDeterministic: pooling must be bit-deterministic regardless of
// sparse-map iteration order — counts pool as integers, with one
// division per bin. Two histograms with identical content built in
// different insertion orders (different map layouts) must pool to
// bit-equal distributions, including bins that aggregate many sparse
// degrees (where float accumulation order once leaked through as ulp
// wobble in σ(di)).
func TestPoolDeterministic(t *testing.T) {
	degrees := make([]int, 0, 600)
	for d := 1025; d < 2025; d += 2 { // 500 sparse degrees in one pooled bin
		degrees = append(degrees, d)
	}
	for d := 1; d <= 100; d++ {
		degrees = append(degrees, d)
	}
	build := func(order func(i int) int) *Histogram {
		h := New()
		for i := range degrees {
			d := degrees[order(i)]
			if err := h.AddN(d, int64(1+d%7)); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	fwd := build(func(i int) int { return i })
	rev := build(func(i int) int { return len(degrees) - 1 - i })
	pf, err := fwd.Pool()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := rev.Pool()
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.D) != len(pr.D) {
		t.Fatalf("bin counts differ: %d vs %d", len(pf.D), len(pr.D))
	}
	for i := range pf.D {
		if pf.D[i] != pr.D[i] {
			t.Errorf("bin %d: %x vs %x (insertion order leaked into pooled floats)",
				i, pf.D[i], pr.D[i])
		}
	}
	// Repeated pooling of one histogram is trivially stable too.
	again, err := fwd.Pool()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pf.D {
		if pf.D[i] != again.D[i] {
			t.Errorf("bin %d: repeated Pool differs", i)
		}
	}
}
