package palu

import (
	"errors"
	"fmt"
	"math"

	"hybridplaw/internal/graph"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/xrand"
)

// GenerateOptions configures the graph-based generator.
type GenerateOptions struct {
	// N is the underlying node budget; the three sections receive
	// round(C·N), round(L·N) and round(U·N) nodes (star leaves are drawn on
	// top of the budget, matching the paper's bookkeeping in which U counts
	// star centers).
	N int
	// MinCoreDegree raises sampled core degrees below the floor up to it
	// (0 or 1 leaves the pure zeta law). A floor >= 2 models vantage
	// points that only see established multi-peer infrastructure, which
	// produces the depressed degree-1 head (positive Zipf–Mandelbrot δ)
	// seen in some of the paper's fan-in panels.
	MinCoreDegree int
}

// Underlying is a generated underlying network with its node categories.
type Underlying struct {
	// G is the underlying multigraph. Node ids are assigned contiguously:
	// core nodes first, then core leaves, then star centers, then star
	// leaves.
	G *graph.Graph
	// CoreN, LeafN, StarN are the realized section sizes (node counts).
	CoreN, LeafN, StarN int
	// StarLeafN is the realized total number of star leaves (ΣPo(λ)).
	StarLeafN int
	// Params echoes the generating parameters.
	Params Params
}

// CategoryOf classifies a node id into its generation category.
type Category int

// Node categories in generation order.
const (
	CatCore Category = iota
	CatCoreLeaf
	CatStarCenter
	CatStarLeaf
)

// CategoryOf returns the category of node id.
func (u *Underlying) CategoryOf(id int32) (Category, error) {
	n := int(id)
	switch {
	case n < 0 || n >= u.G.NumNodes():
		return 0, fmt.Errorf("palu: node %d out of range", id)
	case n < u.CoreN:
		return CatCore, nil
	case n < u.CoreN+u.LeafN:
		return CatCoreLeaf, nil
	case n < u.CoreN+u.LeafN+u.StarN:
		return CatStarCenter, nil
	default:
		return CatStarLeaf, nil
	}
}

// Generate builds an underlying PALU network as an explicit multigraph
// (Section III/V):
//
//  1. core: round(C·N) nodes with i.i.d. zeta(α) degrees wired by the
//     configuration model;
//  2. leaves: round(L·N) degree-1 nodes attached to core nodes;
//  3. unattached stars: round(U·N) centers, each with Po(λ) fresh leaf
//     nodes.
func Generate(params Params, opts GenerateOptions, rng *xrand.RNG) (*Underlying, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if opts.N <= 0 {
		return nil, errors.New("palu: node budget N must be positive")
	}
	coreN := int(math.Round(params.C * float64(opts.N)))
	leafN := int(math.Round(params.L * float64(opts.N)))
	starN := int(math.Round(params.U * float64(opts.N)))

	var g *graph.Graph
	var err error
	if coreN > 0 {
		// Core degrees are capped at the core size, an absolute upper
		// bound on simple-graph degrees (the multigraph tolerates it).
		degrees, derr := graph.ZetaDegreeSequence(coreN, params.Alpha, coreN, rng)
		if derr != nil {
			return nil, derr
		}
		if opts.MinCoreDegree > 1 {
			floor := int64(opts.MinCoreDegree)
			for i, d := range degrees {
				if d < floor {
					degrees[i] = floor
				}
			}
		}
		g, err = graph.ConfigurationModel(degrees, rng)
	} else {
		g, err = graph.New(0)
	}
	if err != nil {
		return nil, err
	}

	// Core leaves attach preferentially: a uniform edge endpoint is a
	// core node drawn with probability proportional to its degree, which
	// concentrates leaves on supernodes as in Fig. 2 ("supernode
	// leaves"). A core with no edges falls back to a uniform core node.
	endpoints := make([]int32, 0, 2*g.NumEdges())
	for _, e := range g.Edges() {
		endpoints = append(endpoints, e.U, e.V)
	}
	for i := 0; i < leafN; i++ {
		leaf := g.AddNode()
		if coreN == 0 {
			continue // degenerate: leaves with no core stay isolated
		}
		var host int32
		if len(endpoints) > 0 {
			host = endpoints[rng.Intn(len(endpoints))]
		} else {
			host = int32(rng.Intn(coreN))
		}
		if err := g.AddEdge(leaf, host); err != nil {
			return nil, err
		}
	}

	// Unattached stars.
	starLeaves := 0
	centers := make([]int32, starN)
	for i := range centers {
		centers[i] = g.AddNode()
	}
	stars := xrand.NewPoissonSampler(params.Lambda)
	for _, c := range centers {
		k, err := stars.Draw(rng)
		if err != nil {
			return nil, err
		}
		for j := 0; j < k; j++ {
			leaf := g.AddNode()
			if err := g.AddEdge(c, leaf); err != nil {
				return nil, err
			}
			starLeaves++
		}
	}
	return &Underlying{
		G: g, CoreN: coreN, LeafN: leafN, StarN: starN,
		StarLeafN: starLeaves, Params: params,
	}, nil
}

// Observe applies the Erdős–Rényi edge sampling of Section V and returns
// the observed network: each underlying edge is retained independently
// with probability p.
func (u *Underlying) Observe(p float64, rng *xrand.RNG) (*graph.Graph, error) {
	return u.G.Subsample(p, rng)
}

// ObservedCategoryCounts tallies, per category, how many nodes remain
// visible (degree >= 1) in an observed graph obtained from this underlying
// network. The observed graph must share node ids with u.G.
type ObservedCategoryCounts struct {
	Core, CoreLeaves, StarCenters, StarLeaves int64
	// UnattachedLinks counts star centers observed with exactly one leaf.
	UnattachedLinks int64
	// Total is the number of visible nodes.
	Total int64
}

// CountObserved classifies the visible nodes of an observed graph.
func (u *Underlying) CountObserved(obs *graph.Graph) (ObservedCategoryCounts, error) {
	if obs.NumNodes() != u.G.NumNodes() {
		return ObservedCategoryCounts{}, errors.New("palu: observed graph node count mismatch")
	}
	var out ObservedCategoryCounts
	for id := 0; id < obs.NumNodes(); id++ {
		d := obs.Degree(int32(id))
		if d == 0 {
			continue
		}
		out.Total++
		cat, err := u.CategoryOf(int32(id))
		if err != nil {
			return ObservedCategoryCounts{}, err
		}
		switch cat {
		case CatCore:
			out.Core++
		case CatCoreLeaf:
			out.CoreLeaves++
		case CatStarCenter:
			out.StarCenters++
			if d == 1 {
				out.UnattachedLinks++
			}
		case CatStarLeaf:
			out.StarLeaves++
		}
	}
	return out, nil
}

// sampleObserved draws one Section V observation of the model without
// materializing a graph and reports its visible nodes to visit: each call
// visit(k, count) stands for count visible nodes of observed degree k
// (k, count >= 1). The draws follow the Section V independence derivation
// in a fixed order, which every figure built on these samplers depends on:
//
//   - each of round(C·N) core nodes draws an underlying zeta(α) degree d,
//     then an observed Bin(d, p) degree k, and is visited as (k, 1) if
//     k > 0;
//   - one Bin(round(L·N), p) draw counts the visible degree-1 leaves,
//     visited together as (1, count);
//   - each of round(U·N) star centers draws Po(λp) observed leaves k and,
//     if k > 0, is visited as (k, 1), followed by its leaves as (1, k).
//
// A visitor that draws from rng itself (an orientation split, link
// weights) does so inside visit, so its draws fall between the loop's at
// exactly these points.
func sampleObserved(params Params, n int, p float64, rng *xrand.RNG, visit func(k, count int) error) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if n <= 0 {
		return errors.New("palu: node budget must be positive")
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("palu: sampling probability p=%v outside [0,1]", p)
	}
	coreN := int(math.Round(params.C * float64(n)))
	leafN := int(math.Round(params.L * float64(n)))
	starN := int(math.Round(params.U * float64(n)))
	zeta := xrand.NewZetaSampler(params.Alpha)
	for i := 0; i < coreN; i++ {
		d, err := zeta.Draw(rng)
		if err != nil {
			return err
		}
		k, err := rng.Binomial(d, p)
		if err != nil {
			return err
		}
		if k > 0 {
			if err := visit(k, 1); err != nil {
				return err
			}
		}
	}
	visLeaves, err := rng.Binomial(leafN, p)
	if err != nil {
		return err
	}
	if visLeaves > 0 {
		if err := visit(1, visLeaves); err != nil {
			return err
		}
	}
	stars := xrand.NewPoissonSampler(params.Lambda * p)
	for i := 0; i < starN; i++ {
		k, err := stars.Draw(rng)
		if err != nil {
			return err
		}
		if k == 0 {
			continue
		}
		if err := visit(k, 1); err != nil { // the center
			return err
		}
		if err := visit(1, k); err != nil { // its k leaves
			return err
		}
	}
	return nil
}

// FastObservedHistogram samples the observed degree histogram directly
// from the model's probabilistic description (sampleObserved) without
// materializing a graph. This scales to underlying networks orders of
// magnitude larger than the graph-based path and is the generator behind
// the large-NV experiments.
func FastObservedHistogram(params Params, n int, p float64, rng *xrand.RNG) (*hist.Histogram, error) {
	h := hist.New()
	err := sampleObserved(params, n, p, rng, func(k, count int) error {
		return h.AddN(k, int64(count))
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}
