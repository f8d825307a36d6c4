package stats

import (
	"math"
	"sort"
)

// KSDiscrete returns the Kolmogorov–Smirnov distance between an observed
// discrete distribution and a model CDF, both given on the same ordered
// support. obsCounts[i] is the observed count at support point i and
// modelCDF[i] is the model's cumulative probability through point i.
// It is the goodness-of-fit statistic of the Clauset–Shalizi–Newman
// power-law baseline and of the ZM-vs-PALU comparisons.
func KSDiscrete(obsCounts []float64, modelCDF []float64) float64 {
	if len(obsCounts) != len(modelCDF) || len(obsCounts) == 0 {
		return math.NaN()
	}
	var total float64
	for _, c := range obsCounts {
		if c < 0 || math.IsNaN(c) {
			return math.NaN()
		}
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	var cum, maxD float64
	for i, c := range obsCounts {
		cum += c / total
		d := math.Abs(cum - modelCDF[i])
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

// Resampler draws bootstrap resamples of an integer-weighted empirical
// distribution. Source abstracts the RNG so stats does not depend on xrand.
type Source interface {
	Float64() float64
	Intn(n int) int
}

// BootstrapCounts resamples n observations from the empirical distribution
// given by counts (counts[i] observations of support point i) and returns
// the resampled counts. Sampling is multinomial via cumulative inversion.
func BootstrapCounts(src Source, counts []float64, n int) []float64 {
	out := make([]float64, len(counts))
	var total float64
	for _, c := range counts {
		total += c
	}
	if total <= 0 || n <= 0 {
		return out
	}
	cdf := make([]float64, len(counts))
	var cum float64
	for i, c := range counts {
		cum += c / total
		cdf[i] = cum
	}
	cdf[len(cdf)-1] = 1
	for k := 0; k < n; k++ {
		u := src.Float64()
		i := sort.SearchFloat64s(cdf, u)
		if i >= len(out) {
			i = len(out) - 1
		}
		out[i]++
	}
	return out
}
