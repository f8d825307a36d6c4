package graph

import (
	"testing"
	"testing/quick"

	"hybridplaw/internal/xrand"
)

func TestAddEdgeDegrees(t *testing.T) {
	g, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd := func(u, v int32) {
		t.Helper()
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1)
	mustAdd(0, 2)
	mustAdd(3, 3) // self loop
	if g.NumEdges() != 3 {
		t.Errorf("edges=%d", g.NumEdges())
	}
	wantDeg := []int64{2, 1, 1, 2}
	for i, w := range wantDeg {
		if g.Degree(int32(i)) != w {
			t.Errorf("deg(%d) = %d, want %d", i, g.Degree(int32(i)), w)
		}
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	g, _ := New(2)
	if err := g.AddEdge(0, 2); err == nil {
		t.Error("out-of-range edge: expected error")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative node: expected error")
	}
}

func TestNewNegative(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Error("negative node count: expected error")
	}
}

func TestAddNode(t *testing.T) {
	g, _ := New(1)
	id := g.AddNode()
	if id != 1 || g.NumNodes() != 2 {
		t.Errorf("AddNode id=%d n=%d", id, g.NumNodes())
	}
	if err := g.AddEdge(0, id); err != nil {
		t.Errorf("edge to new node: %v", err)
	}
}

func TestDegreeHistogramExcludesIsolated(t *testing.T) {
	g, _ := New(5)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(0, 2)
	counts := g.DegreeHistogramCounts()
	if counts[1] != 2 || counts[2] != 1 {
		t.Errorf("counts = %v", counts)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Errorf("histogram covers %d nodes, want 3 (two isolated excluded)", total)
	}
}

func TestMaxDegreeNode(t *testing.T) {
	g, _ := New(3)
	if id, d := g.MaxDegreeNode(); id != -1 || d != 0 {
		t.Errorf("edgeless: id=%d d=%d", id, d)
	}
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(2, 1)
	if id, d := g.MaxDegreeNode(); id != 1 || d != 2 {
		t.Errorf("supernode: id=%d d=%d", id, d)
	}
}

func TestUnionFindInvariants(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		uf := NewUnionFind(n)
		r := xrand.New(seed)
		merges := 0
		for i := 0; i < n*2; i++ {
			a, b := int32(r.Intn(n)), int32(r.Intn(n))
			if uf.Union(a, b) {
				merges++
			}
			if uf.Find(a) != uf.Find(b) {
				return false
			}
		}
		// The set count decreases exactly once per successful union, and
		// sizes across representatives sum to n.
		var total int32
		seen := map[int32]bool{}
		for i := 0; i < n; i++ {
			root := uf.Find(int32(i))
			if !seen[root] {
				seen[root] = true
				total += uf.size[root]
			}
		}
		return len(seen) == n-merges && total == int32(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestComponentsOrderedBySize(t *testing.T) {
	g, _ := New(7)
	// triangle {0,1,2}, edge {3,4}, isolated {5}, {6}
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 0)
	_ = g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Errorf("component sizes: %d %d %d", len(comps[0]), len(comps[1]), len(comps[2]))
	}
}

func TestDecomposeTopologyFig2(t *testing.T) {
	// Build the Fig. 2 cartoon: a supernode with leaves, a small core with
	// its own leaves, plus unattached links and isolated nodes.
	g, _ := New(14)
	// Core: nodes 0 (supernode), 1, 2 form a triangle.
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 0)
	// Supernode leaves: 3, 4, 5 attach to 0.
	_ = g.AddEdge(0, 3)
	_ = g.AddEdge(0, 4)
	_ = g.AddEdge(0, 5)
	// Core leaf: 6 attaches to 1.
	_ = g.AddEdge(1, 6)
	// Unattached links: {7,8} and {9,10}.
	_ = g.AddEdge(7, 8)
	_ = g.AddEdge(9, 10)
	// Small component: path 11-12-13.
	_ = g.AddEdge(11, 12)
	_ = g.AddEdge(12, 13)
	topo := g.DecomposeTopology()
	if topo.SupernodeID != 0 || topo.SupernodeDegree != 5 {
		t.Errorf("supernode: %+v", topo)
	}
	if topo.SupernodeLeaves != 3 {
		t.Errorf("supernode leaves = %d, want 3", topo.SupernodeLeaves)
	}
	if topo.CoreLeaves != 1 {
		t.Errorf("core leaves = %d, want 1", topo.CoreLeaves)
	}
	if topo.CoreNodes != 3 {
		t.Errorf("core nodes = %d, want 3", topo.CoreNodes)
	}
	if topo.UnattachedLinks != 2 {
		t.Errorf("unattached links = %d, want 2", topo.UnattachedLinks)
	}
	if topo.SmallComponents != 1 {
		t.Errorf("small components = %d, want 1", topo.SmallComponents)
	}
	if topo.IsolatedNodes != 0 {
		t.Errorf("isolated = %d", topo.IsolatedNodes)
	}
}

func TestDecomposeTopologyEdgeless(t *testing.T) {
	g, _ := New(3)
	topo := g.DecomposeTopology()
	if topo.SupernodeID != -1 || topo.IsolatedNodes != 3 {
		t.Errorf("edgeless topo: %+v", topo)
	}
}

func TestSubsampleExtremes(t *testing.T) {
	r := xrand.New(9)
	g, _ := New(50)
	for i := 0; i < 49; i++ {
		_ = g.AddEdge(int32(i), int32(i+1))
	}
	all, err := g.Subsample(1, r)
	if err != nil {
		t.Fatal(err)
	}
	if all.NumEdges() != g.NumEdges() {
		t.Errorf("p=1 kept %d of %d edges", all.NumEdges(), g.NumEdges())
	}
	none, err := g.Subsample(0, r)
	if err != nil {
		t.Fatal(err)
	}
	if none.NumEdges() != 0 {
		t.Errorf("p=0 kept %d edges", none.NumEdges())
	}
	if _, err := g.Subsample(1.5, r); err == nil {
		t.Error("p>1: expected error")
	}
	if _, err := g.Subsample(-0.1, r); err == nil {
		t.Error("p<0: expected error")
	}
}

func TestSubsampleBinomialFraction(t *testing.T) {
	r := xrand.New(31)
	g, _ := New(2)
	for i := 0; i < 20000; i++ {
		_ = g.AddEdge(0, 1)
	}
	sub, err := g.Subsample(0.3, r)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(sub.NumEdges())
	want := 0.3 * 20000
	sd := 20000 * 0.3 * 0.7
	if diff := got - want; diff*diff > 36*sd {
		t.Errorf("kept %v edges, want ~%v", got, want)
	}
}

func TestConfigurationModelRealizesDegrees(t *testing.T) {
	r := xrand.New(77)
	degrees := []int64{3, 2, 2, 1, 0, 4} // sum = 12, even
	g, err := ConfigurationModel(degrees, r)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range degrees {
		if got := g.Degree(int32(i)); got != want {
			t.Errorf("node %d degree = %d, want %d", i, got, want)
		}
	}
	if g.NumEdges() != 6 {
		t.Errorf("edges = %d, want 6", g.NumEdges())
	}
}

func TestConfigurationModelOddSum(t *testing.T) {
	r := xrand.New(78)
	degrees := []int64{3, 1, 1} // odd sum: one stub dropped from node 0
	g, err := ConfigurationModel(degrees, r)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i := range degrees {
		sum += g.Degree(int32(i))
	}
	if sum != 4 {
		t.Errorf("realized degree sum = %d, want 4", sum)
	}
	if g.Degree(0) != 2 {
		t.Errorf("max-degree node should lose the stub: deg(0)=%d", g.Degree(0))
	}
}

func TestConfigurationModelErrors(t *testing.T) {
	r := xrand.New(1)
	if _, err := ConfigurationModel([]int64{2, -1}, r); err == nil {
		t.Error("negative degree: expected error")
	}
	g, err := ConfigurationModel(nil, r)
	if err != nil || g.NumNodes() != 0 {
		t.Errorf("empty sequence: %v, %d nodes", err, g.NumNodes())
	}
}

func TestZetaDegreeSequence(t *testing.T) {
	r := xrand.New(12)
	seq, err := ZetaDegreeSequence(5000, 2.2, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 5000 {
		t.Fatalf("len = %d", len(seq))
	}
	for _, d := range seq {
		if d < 1 {
			t.Fatalf("degree %d < 1", d)
		}
	}
	capped, err := ZetaDegreeSequence(5000, 2.2, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range capped {
		if d > 50 {
			t.Fatalf("capped degree %d > 50", d)
		}
	}
	if _, err := ZetaDegreeSequence(-1, 2, 0, r); err == nil {
		t.Error("negative n: expected error")
	}
}

func BenchmarkConfigurationModel(b *testing.B) {
	r := xrand.New(1)
	degrees, err := ZetaDegreeSequence(10000, 2.1, 5000, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConfigurationModel(degrees, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComponents(b *testing.B) {
	r := xrand.New(1)
	degrees, err := ZetaDegreeSequence(50000, 2.1, 5000, r)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ConfigurationModel(degrees, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Components()
	}
}
