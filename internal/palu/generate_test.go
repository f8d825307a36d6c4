package palu

import (
	"fmt"
	"math"
	"testing"

	"hybridplaw/internal/xrand"
)

func TestGenerateSectionSizes(t *testing.T) {
	params, err := FromWeights(3, 4, 2, 2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(11)
	u, err := Generate(params, GenerateOptions{N: 100000}, r)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := u.CoreN, int(math.Round(params.C*100000)); got != want {
		t.Errorf("CoreN = %d want %d", got, want)
	}
	if got, want := u.LeafN, int(math.Round(params.L*100000)); got != want {
		t.Errorf("LeafN = %d want %d", got, want)
	}
	if got, want := u.StarN, int(math.Round(params.U*100000)); got != want {
		t.Errorf("StarN = %d want %d", got, want)
	}
	// Star leaves ~ Po(λ) per center: mean λ·StarN, sd sqrt(λ·StarN).
	mean := params.Lambda * float64(u.StarN)
	if diff := math.Abs(float64(u.StarLeafN) - mean); diff > 6*math.Sqrt(mean) {
		t.Errorf("StarLeafN = %d, want ~%v", u.StarLeafN, mean)
	}
	if u.G.NumNodes() != u.CoreN+u.LeafN+u.StarN+u.StarLeafN {
		t.Errorf("node count %d inconsistent with sections", u.G.NumNodes())
	}
}

func TestGenerateErrors(t *testing.T) {
	params, _ := FromWeights(1, 1, 1, 2, 2)
	r := xrand.New(1)
	if _, err := Generate(params, GenerateOptions{N: 0}, r); err == nil {
		t.Error("N=0: expected error")
	}
	if _, err := Generate(Params{C: 5, Alpha: 2}, GenerateOptions{N: 10}, r); err == nil {
		t.Error("invalid params: expected error")
	}
}

func TestCategoryOf(t *testing.T) {
	params, _ := FromWeights(2, 1, 1, 1, 2.0)
	r := xrand.New(3)
	u, err := Generate(params, GenerateOptions{N: 1000}, r)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		id   int32
		want Category
	}{
		{0, CatCore},
		{int32(u.CoreN - 1), CatCore},
		{int32(u.CoreN), CatCoreLeaf},
		{int32(u.CoreN + u.LeafN), CatStarCenter},
		{int32(u.CoreN + u.LeafN + u.StarN), CatStarLeaf},
	}
	for _, c := range checks {
		got, err := u.CategoryOf(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("CategoryOf(%d) = %v want %v", c.id, got, c.want)
		}
	}
	if _, err := u.CategoryOf(-1); err == nil {
		t.Error("negative id: expected error")
	}
	if _, err := u.CategoryOf(int32(u.G.NumNodes())); err == nil {
		t.Error("out-of-range id: expected error")
	}
}

func TestLeafDegreesAreOne(t *testing.T) {
	params, _ := FromWeights(1, 2, 1, 3, 2.0)
	r := xrand.New(7)
	u, err := Generate(params, GenerateOptions{N: 20000}, r)
	if err != nil {
		t.Fatal(err)
	}
	for id := u.CoreN; id < u.CoreN+u.LeafN; id++ {
		if d := u.G.Degree(int32(id)); d != 1 {
			t.Fatalf("core leaf %d has degree %d", id, d)
		}
	}
	for id := u.CoreN + u.LeafN + u.StarN; id < u.G.NumNodes(); id++ {
		if d := u.G.Degree(int32(id)); d != 1 {
			t.Fatalf("star leaf %d has degree %d", id, d)
		}
	}
}

func TestUniformVsPreferentialAttachment(t *testing.T) {
	// Preferential attachment should concentrate leaves on the supernode
	// far beyond the 1/coreN share uniform attachment would give it.
	params, _ := FromWeights(1, 3, 0, 0, 1.8)
	u, err := Generate(params, GenerateOptions{N: 30000}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	hub, _ := u.G.MaxDegreeNode()
	leaves := 0
	for _, e := range u.G.Edges() {
		// A core leaf's one edge joins it to its host.
		leaf := e.V
		if e.V == hub {
			leaf = e.U
		} else if e.U != hub {
			continue
		}
		if int(leaf) >= u.CoreN && int(leaf) < u.CoreN+u.LeafN {
			leaves++
		}
	}
	share, uniform := float64(leaves)/float64(u.LeafN), 1/float64(u.CoreN)
	t.Logf("supernode holds %d of %d leaves (share %.4g, uniform %.4g)", leaves, u.LeafN, share, uniform)
	if share <= 10*uniform {
		t.Errorf("supernode leaf share %.4g, want > 10 × the uniform share %.4g", share, uniform)
	}
}

func TestObserveMatchesExpectedFractions(t *testing.T) {
	// E-V1 (graph path): star and leaf category fractions against the
	// Section IV predictions. Use L=0-coupling-free core check separately.
	params, err := FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(101)
	u, err := Generate(params, GenerateOptions{N: 300000}, r)
	if err != nil {
		t.Fatal(err)
	}
	p := 0.4
	obs, err := u.Observe(p, r)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := u.CountObserved(obs)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewObservation(params, p)
	if err != nil {
		t.Fatal(err)
	}
	// Leaf visibility: Bin(LeafN, p).
	wantLeaves := p * float64(u.LeafN)
	seLeaves := math.Sqrt(float64(u.LeafN) * p * (1 - p))
	if diff := math.Abs(float64(counts.CoreLeaves) - wantLeaves); diff > 6*seLeaves {
		t.Errorf("visible leaves = %d, want %v ± %v", counts.CoreLeaves, wantLeaves, 6*seLeaves)
	}
	// Star visibility: per star 1-e^{-μ} centers + μ leaves.
	mu := o.Mu()
	wantStarNodes := float64(u.StarN) * (mu + 1 - math.Exp(-mu))
	gotStarNodes := float64(counts.StarCenters + counts.StarLeaves)
	if math.Abs(gotStarNodes-wantStarNodes) > 0.02*wantStarNodes+6*math.Sqrt(wantStarNodes) {
		t.Errorf("visible star nodes = %v, want ~%v", gotStarNodes, wantStarNodes)
	}
	// Unattached links: centers with exactly one observed leaf, μe^{-μ}.
	wantLinks := float64(u.StarN) * mu * math.Exp(-mu)
	if math.Abs(float64(counts.UnattachedLinks)-wantLinks) > 0.05*wantLinks+6*math.Sqrt(wantLinks) {
		t.Errorf("unattached links = %d, want ~%v", counts.UnattachedLinks, wantLinks)
	}
}

func TestObserveCoreFractionNoLeafCoupling(t *testing.T) {
	// With L=0 the graph path's core degrees are pure zeta(α) and the
	// exact analytic core visibility must match the simulation.
	params, err := FromWeights(1, 0, 1, 2, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(202)
	u, err := Generate(params, GenerateOptions{N: 400000}, r)
	if err != nil {
		t.Fatal(err)
	}
	p := 0.3
	obs, err := u.Observe(p, r)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := u.CountObserved(obs)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewObservation(params, p)
	if err != nil {
		t.Fatal(err)
	}
	wantCore := o.coreVisibleExact() * float64(u.CoreN)
	gotCore := float64(counts.Core)
	if math.Abs(gotCore-wantCore) > 0.02*wantCore+6*math.Sqrt(wantCore) {
		t.Errorf("visible core = %v, want ~%v", gotCore, wantCore)
	}
	// Total visible vs V_exact * N-equivalent.
	frac := o.ExpectedFractions(true)
	gotCoreFrac := gotCore / float64(counts.Total)
	if math.Abs(gotCoreFrac-frac.Core) > 0.02 {
		t.Errorf("core fraction = %v, want %v", gotCoreFrac, frac.Core)
	}
}

func TestCountObservedMismatch(t *testing.T) {
	params, _ := FromWeights(1, 1, 1, 2, 2)
	r := xrand.New(1)
	u, err := Generate(params, GenerateOptions{N: 100}, r)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Generate(params, GenerateOptions{N: 200}, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.CountObserved(other.G); err == nil {
		t.Error("node count mismatch: expected error")
	}
}

func TestFastObservedHistogramMatchesAnalytic(t *testing.T) {
	// E-V1 (fast path): the fast sampler implements the Section V
	// independence assumptions exactly, so its degree fractions must match
	// DegreeFraction(exact=true) within Monte-Carlo error.
	params, err := FromWeights(2, 2, 1.5, 3, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	p := 0.5
	const n = 400000
	r := xrand.New(303)
	h, err := FastObservedHistogram(params, n, p, r)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewObservation(params, p)
	if err != nil {
		t.Fatal(err)
	}
	total := float64(h.Total())
	for _, d := range []int{1, 2, 3, 5, 8} {
		want, err := o.DegreeFraction(d, true)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(h.Count(d)) / total
		se := math.Sqrt(want * (1 - want) / total)
		if math.Abs(got-want) > 0.03*want+6*se {
			t.Errorf("d=%d: fraction %v, analytic %v (se %v)", d, got, want, se)
		}
	}
	// Visible-node total ≈ V_exact × N.
	wantTotal := o.VisibleFractionExact() * n
	if math.Abs(total-wantTotal) > 0.01*wantTotal+6*math.Sqrt(wantTotal) {
		t.Errorf("total visible = %v, want ~%v", total, wantTotal)
	}
}

func TestFastObservedHistogramErrors(t *testing.T) {
	params, _ := FromWeights(1, 1, 1, 2, 2)
	r := xrand.New(1)
	if _, err := FastObservedHistogram(params, 0, 0.5, r); err == nil {
		t.Error("n=0: expected error")
	}
	if _, err := FastObservedHistogram(params, 100, 1.5, r); err == nil {
		t.Error("p>1: expected error")
	}
	if _, err := FastObservedHistogram(Params{C: 9, Alpha: 2}, 100, 0.5, r); err == nil {
		t.Error("invalid params: expected error")
	}
}

func TestFastHistogramDegreeOneExcess(t *testing.T) {
	// The PALU signature: D(1) far above the pure power-law prediction.
	params, err := FromWeights(1, 3, 2, 1.5, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(404)
	h, err := FastObservedHistogram(params, 200000, 0.6, r)
	if err != nil {
		t.Fatal(err)
	}
	p1 := h.FractionDegreeOne()
	// A pure zeta(2) sample has p(1) = 1/zeta(2) ≈ 0.608; with leaves and
	// stars the fraction must exceed 0.7 here.
	if p1 < 0.7 {
		t.Errorf("degree-1 fraction %v lacks the leaf/unattached excess", p1)
	}
}

func BenchmarkGenerateGraph(b *testing.B) {
	params, err := FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(params, GenerateOptions{N: 100000}, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastObservedHistogram samples at each α the suite draws at;
// at α = 2 the zeta draw's powers take math.Pow's integer-exponent path.
func BenchmarkFastObservedHistogram(b *testing.B) {
	for _, alpha := range []float64{2.0, 2.2, 2.6} {
		b.Run(fmt.Sprintf("alpha=%.1f", alpha), func(b *testing.B) {
			params, err := FromWeights(2, 2, 1.5, 2.5, alpha)
			if err != nil {
				b.Fatal(err)
			}
			r := xrand.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FastObservedHistogram(params, 100000, 0.4, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
