package palu

import (
	"errors"
	"fmt"
	"math"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/xrand"
)

// Directed PALU is the paper's deferred directionality discussion
// ("In reality these edge connections are directed ... Using a directed
// model has a small impact on overall the degree distribution analysis",
// Section III). Each observed undirected edge is oriented independently:
// out of a given endpoint with probability q (q = 1/2 is the symmetric
// default). A node of observed total degree k then has out-degree
// Bin(k, q) and in-degree k − Bin(k, q).
//
// The quantitative content of the paper's claim is testable: binomial
// splitting preserves power-law tail exponents (only amplitudes change by
// q^{α−1}), so in-, out-, and total-degree distributions share α while the
// degree-1 head shifts. DirectedHistograms makes the claim executable.

// DirectedHistograms are the in/out/total degree distributions of a
// directed observation.
type DirectedHistograms struct {
	// Total is the undirected observed degree histogram.
	Total *hist.Histogram
	// In and Out are the directed views. Nodes whose in-degree (resp.
	// out-degree) is zero are absent from the respective histogram, just
	// as invisible nodes are absent from Total.
	In, Out *hist.Histogram
	// OutProbability echoes the orientation parameter q.
	OutProbability float64
}

// FastDirectedHistograms samples a directed observation of the PALU model:
// the fast generator (sampleObserved) draws each node's observed total
// degree, and each visible node then draws its Bin(k, q) out-degree.
func FastDirectedHistograms(params Params, n int, p, q float64, rng *xrand.RNG) (DirectedHistograms, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return DirectedHistograms{}, fmt.Errorf("palu: orientation probability q=%v outside [0,1]", q)
	}
	out := DirectedHistograms{
		Total: hist.New(), In: hist.New(), Out: hist.New(),
		OutProbability: q,
	}
	err := sampleObserved(params, n, p, rng, func(k, count int) error {
		if err := out.Total.AddN(k, int64(count)); err != nil {
			return err
		}
		for ; count > 0; count-- {
			kOut, err := rng.Binomial(k, q)
			if err != nil {
				return err
			}
			if kOut > 0 {
				if err := out.Out.Add(kOut); err != nil {
					return err
				}
			}
			if kIn := k - kOut; kIn > 0 {
				if err := out.In.Add(kIn); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return DirectedHistograms{}, err
	}
	return out, nil
}

// DirectedTailAmplitudeRatio returns the predicted out-degree tail
// amplitude relative to the total-degree tail: splitting a d^{−α} tail
// binomially with probability q rescales the amplitude by q^{α−1} while
// preserving α (the same thinning lemma as the p-sampling of Section V).
func DirectedTailAmplitudeRatio(alpha, q float64) (float64, error) {
	if alpha <= 1 {
		return 0, errors.New("palu: alpha must exceed 1")
	}
	if q <= 0 || q > 1 {
		return 0, errors.New("palu: q must be in (0,1]")
	}
	return math.Pow(q, alpha-1), nil
}
