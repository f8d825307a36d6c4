package palu

import (
	"errors"
	"math"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

// Weighted PALU is the paper's first-named extension ("The PALU model
// research can also extend to the case of weighted edges where potential
// weights could be the number of packets or number of bytes sent along a
// link", Section VII). Each observed edge carries a heavy-tailed weight
// w >= 1 (packets on the link); a node's *packet degree* is the sum of the
// weights of its incident observed edges. The weighted observed network
// therefore predicts the "source packets" / "destination packets" /
// "link packets" quantities of Fig. 1, not just the fan-out/fan-in ones.

// WeightModel parameterizes the per-link packet multiplicity law as a
// modified Zipf–Mandelbrot distribution over 1..MaxWeight.
type WeightModel struct {
	// Alpha and Delta are the modified Zipf–Mandelbrot weight parameters.
	Alpha, Delta float64
	// MaxWeight truncates the weight support (dmax of the weight law).
	MaxWeight int
}

// Validate checks the weight-model domain.
func (w WeightModel) Validate() error {
	m := zipfmand.Model{Alpha: w.Alpha, Delta: w.Delta}
	if err := m.Validate(); err != nil {
		return err
	}
	if w.MaxWeight < 1 {
		return errors.New("palu: MaxWeight must be >= 1")
	}
	return nil
}

// Mean returns the expected link weight E[w].
func (w WeightModel) Mean() (float64, error) {
	pmf, err := zipfmand.Model{Alpha: w.Alpha, Delta: w.Delta}.PMF(w.MaxWeight)
	if err != nil {
		return 0, err
	}
	var mean float64
	for i, p := range pmf {
		mean += float64(i+1) * p
	}
	return mean, nil
}

// Sampler validates w and builds an alias table over its pmf; a draw d
// from the table is the link weight d + 1.
func (w WeightModel) Sampler() (*xrand.Alias, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	pmf, err := zipfmand.Model{Alpha: w.Alpha, Delta: w.Delta}.PMF(w.MaxWeight)
	if err != nil {
		return nil, err
	}
	return xrand.NewAlias(pmf)
}

// WeightedHistograms are the degree and packet-degree distributions of a
// weighted observed PALU network.
type WeightedHistograms struct {
	// Degree is the unweighted observed degree histogram (fan-out view).
	Degree *hist.Histogram
	// PacketDegree is the weighted degree histogram: per node, the sum of
	// its incident observed link weights (source/destination packets view).
	PacketDegree *hist.Histogram
	// LinkWeight is the per-link weight histogram (link packets view).
	LinkWeight *hist.Histogram
}

// FastWeightedHistograms extends FastObservedHistogram with link weights:
// every observed edge draws an i.i.d. weight from wm, and each node
// accumulates both its edge count and its weight sum. The independence
// assumptions of Section V apply unchanged; the packet degree of a node
// with observed degree k is the sum of k i.i.d. weights.
func FastWeightedHistograms(params Params, n int, p float64, wm WeightModel, rng *xrand.RNG) (WeightedHistograms, error) {
	alias, err := wm.Sampler()
	if err != nil {
		return WeightedHistograms{}, err
	}
	out := WeightedHistograms{
		Degree:       hist.New(),
		PacketDegree: hist.New(),
		LinkWeight:   hist.New(),
	}
	err = sampleObserved(params, n, p, rng, func(k, count int) error {
		if err := out.Degree.AddN(k, int64(count)); err != nil {
			return err
		}
		for ; count > 0; count-- {
			wsum := 0
			for i := 0; i < k; i++ {
				w := alias.Draw(rng) + 1
				wsum += w
				if err := out.LinkWeight.Add(w); err != nil {
					return err
				}
			}
			if err := out.PacketDegree.Add(wsum); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return WeightedHistograms{}, err
	}
	return out, nil
}

// ExpectedPacketDegreeTailExponent returns the predicted tail exponent of
// the packet-degree (weighted) distribution: the heavier of the degree and
// weight tails dominates the convolution, so the exponent is
// min(α_degree, α_weight) — a standard result for sums of heavy-tailed
// variables over a heavy-tailed number of terms.
func ExpectedPacketDegreeTailExponent(params Params, wm WeightModel) float64 {
	return math.Min(params.Alpha, wm.Alpha)
}
