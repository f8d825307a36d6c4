package graph

import (
	"errors"

	"hybridplaw/internal/xrand"
)

// ConfigurationModel builds a multigraph realizing the given degree
// sequence by uniform stub matching. If the degree sum is odd, one stub is
// dropped from a maximal-degree node (the usual convention; the PALU
// generator draws i.i.d. zeta degrees, so parity is random).
//
// The result may contain self-loops and multi-edges; for power-law degree
// sequences their expected number is o(edges) and the PALU analysis
// tolerates them (degree bookkeeping stays exact).
func ConfigurationModel(degrees []int64, rng *xrand.RNG) (*Graph, error) {
	g, err := New(len(degrees))
	if err != nil {
		return nil, err
	}
	var total int64
	maxIdx := -1
	for i, d := range degrees {
		if d < 0 {
			return nil, errors.New("graph: negative degree in sequence")
		}
		total += d
		if maxIdx < 0 || d > degrees[maxIdx] {
			maxIdx = i
		}
	}
	if total == 0 {
		return g, nil
	}
	drop := int64(0)
	if total%2 == 1 {
		drop = 1 // drop one stub from the max-degree node
	}
	stubs := make([]int32, 0, total-drop)
	for i, d := range degrees {
		dd := d
		if drop == 1 && i == maxIdx {
			dd--
			drop = 0
		}
		for k := int64(0); k < dd; k++ {
			stubs = append(stubs, int32(i))
		}
	}
	xrand.Shuffle(rng, stubs)
	g.edges = make([]Edge, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		if err := g.AddEdge(stubs[i], stubs[i+1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// ZetaDegreeSequence draws n i.i.d. degrees from the zeta(alpha)
// distribution, optionally capped at maxD (0 means uncapped). This is the
// PALU core's prescribed degree law d^{-alpha}/zeta(alpha).
func ZetaDegreeSequence(n int, alpha float64, maxD int, rng *xrand.RNG) ([]int64, error) {
	if n < 0 {
		return nil, errors.New("graph: negative sequence length")
	}
	out := make([]int64, n)
	zeta := xrand.NewZetaSampler(alpha)
	for i := range out {
		var d int
		var err error
		if maxD > 0 {
			d, err = zeta.DrawCapped(rng, maxD)
		} else {
			d, err = zeta.Draw(rng)
		}
		if err != nil {
			return nil, err
		}
		out[i] = int64(d)
	}
	return out, nil
}
