// Package graph provides the network-topology substrate for the PALU
// model: undirected multigraphs with degree bookkeeping, union–find
// connected components, the Fig. 2 topology decomposition (supernode,
// core, supernode leaves, core leaves, unattached links), and a
// configuration-model builder for prescribed degree sequences.
//
// The paper treats traffic networks as undirected ("for the sake of the
// model we will consider this undirected", Section III); edges here are
// unordered pairs and self-loops are permitted but tracked.
package graph

import (
	"errors"
	"fmt"
	"sort"

	"hybridplaw/internal/xrand"
)

// Edge is an undirected edge between node ids U and V.
type Edge struct {
	U, V int32
}

// Graph is an undirected multigraph over nodes 0..NumNodes-1.
type Graph struct {
	n     int
	edges []Edge
	deg   []int64
	loops int
}

// New returns an empty graph with n nodes and no edges.
func New(n int) (*Graph, error) {
	if n < 0 {
		return nil, errors.New("graph: negative node count")
	}
	return &Graph{n: n, deg: make([]int64, n)}, nil
}

// NumNodes returns the number of nodes (including isolated ones).
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of edges (multi-edges counted individually).
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumSelfLoops returns the number of self-loop edges.
func (g *Graph) NumSelfLoops() int { return g.loops }

// AddNode appends an isolated node and returns its id.
func (g *Graph) AddNode() int32 {
	g.deg = append(g.deg, 0)
	g.n++
	return int32(g.n - 1)
}

// AddEdge inserts an undirected edge {u, v}. Self-loops contribute 2 to the
// degree of their endpoint, the standard multigraph convention.
func (g *Graph) AddEdge(u, v int32) error {
	if int(u) < 0 || int(u) >= g.n || int(v) < 0 || int(v) >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	g.edges = append(g.edges, Edge{U: u, V: v})
	g.deg[u]++
	g.deg[v]++
	if u == v {
		g.loops++
	}
	return nil
}

// Degree returns the degree of node u.
func (g *Graph) Degree(u int32) int64 { return g.deg[u] }

// Degrees returns a copy of the degree sequence.
func (g *Graph) Degrees() []int64 {
	return append([]int64(nil), g.deg...)
}

// Edges returns the edge list. The slice is shared; callers must not
// modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// DegreeHistogramCounts returns degree → node count over nodes with
// degree >= 1 (degree-0 nodes are unobservable in traffic and excluded,
// matching Section V's removal of isolated nodes).
func (g *Graph) DegreeHistogramCounts() map[int]int64 {
	out := make(map[int]int64)
	for _, d := range g.deg {
		if d >= 1 {
			out[int(d)]++
		}
	}
	return out
}

// MaxDegreeNode returns the node with maximal degree and its degree; the
// supernode of Fig. 2. For an edgeless graph it returns (-1, 0).
func (g *Graph) MaxDegreeNode() (int32, int64) {
	best := int32(-1)
	var bestD int64
	for i, d := range g.deg {
		if d > bestD {
			best = int32(i)
			bestD = d
		}
	}
	return best, bestD
}

// Subsample returns the observed network: a copy of g in which each edge
// is retained independently with probability p (Erdős–Rényi edge sampling,
// Section V: "We obtain our observed subnetwork by retaining each edge
// independently with probability p"). Node ids are preserved; callers can
// drop isolated nodes via DegreeHistogramCounts or Components.
func (g *Graph) Subsample(p float64, rng *xrand.RNG) (*Graph, error) {
	if p < 0 || p > 1 {
		return nil, errors.New("graph: sampling probability outside [0,1]")
	}
	out, err := New(g.n)
	if err != nil {
		return nil, err
	}
	for _, e := range g.edges {
		if rng.Bernoulli(p) {
			if err := out.AddEdge(e.U, e.V); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// UnionFind is a weighted-union path-compressing disjoint-set forest.
type UnionFind struct {
	parent []int32
	size   []int32
}

// NewUnionFind returns a forest of n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

// Find returns the canonical representative of x's set.
func (uf *UnionFind) Find(x int32) int32 {
	root := x
	for uf.parent[root] != root {
		root = uf.parent[root]
	}
	for uf.parent[x] != root {
		uf.parent[x], x = root, uf.parent[x]
	}
	return root
}

// Union merges the sets containing a and b; returns true if they were
// distinct.
func (uf *UnionFind) Union(a, b int32) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	return true
}

// Components returns the connected components of g as slices of node ids,
// sorted by decreasing size (ties by smallest member id). Isolated nodes
// form singleton components.
func (g *Graph) Components() [][]int32 {
	uf := NewUnionFind(g.n)
	for _, e := range g.edges {
		uf.Union(e.U, e.V)
	}
	groups := make(map[int32][]int32)
	for i := 0; i < g.n; i++ {
		r := uf.Find(int32(i))
		groups[r] = append(groups[r], int32(i))
	}
	out := make([][]int32, 0, len(groups))
	for _, members := range groups {
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}

// Topology is the Fig. 2 decomposition of an observed traffic network.
type Topology struct {
	// SupernodeID is the maximal-degree node; -1 if the graph has no edges.
	SupernodeID int32
	// SupernodeDegree is its degree (the paper's dmax, Eq. (1)).
	SupernodeDegree int64
	// SupernodeLeaves counts degree-1 nodes adjacent to the supernode.
	SupernodeLeaves int64
	// CoreNodes counts nodes of degree >= 2 in the giant component.
	CoreNodes int64
	// CoreLeaves counts degree-1 nodes attached to non-supernode core nodes.
	CoreLeaves int64
	// UnattachedLinks counts connected components that are a single edge
	// joining two degree-1 nodes (the paper's "unattached links").
	UnattachedLinks int64
	// SmallComponents counts components with >= 2 nodes outside the giant
	// component that are not single unattached links.
	SmallComponents int64
	// IsolatedNodes counts degree-0 nodes (invisible to traffic capture).
	IsolatedNodes int64
}

// DecomposeTopology classifies g into the Fig. 2 topology categories.
func (g *Graph) DecomposeTopology() Topology {
	var topo Topology
	topo.SupernodeID, topo.SupernodeDegree = g.MaxDegreeNode()
	comps := g.Components()
	if len(comps) == 0 {
		topo.SupernodeID = -1
		return topo
	}
	// Adjacency test restricted to degree-1 nodes: find each leaf's single
	// neighbour from the edge list.
	leafNeighbor := make(map[int32]int32)
	for _, e := range g.edges {
		if g.deg[e.U] == 1 {
			leafNeighbor[e.U] = e.V
		}
		if g.deg[e.V] == 1 {
			leafNeighbor[e.V] = e.U
		}
	}
	giant := comps[0]
	giantSet := make(map[int32]struct{}, len(giant))
	if len(giant) >= 2 {
		for _, u := range giant {
			giantSet[u] = struct{}{}
		}
	}
	for _, comp := range comps {
		switch {
		case len(comp) == 1:
			u := comp[0]
			if g.deg[u] == 0 {
				topo.IsolatedNodes++
			} else {
				// Self-loop-only node: counts as core of its own component.
				topo.SmallComponents++
			}
		case len(comp) == 2 && g.deg[comp[0]] == 1 && g.deg[comp[1]] == 1:
			topo.UnattachedLinks++
		default:
			if _, inGiant := giantSet[comp[0]]; !inGiant || len(comp) != len(giant) {
				topo.SmallComponents++
				continue
			}
			for _, u := range comp {
				if g.deg[u] >= 2 {
					topo.CoreNodes++
					continue
				}
				if leafNeighbor[u] == topo.SupernodeID {
					topo.SupernodeLeaves++
				} else {
					topo.CoreLeaves++
				}
			}
		}
	}
	return topo
}
