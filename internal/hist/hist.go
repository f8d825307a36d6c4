// Package hist implements the degree-histogram machinery of Section II:
// histograms n(d) of a network quantity d, probabilities p(d), cumulative
// probabilities P(d), and the binary logarithmically pooled differential
// cumulative probabilities
//
//	D(di) = P(di) − P(di−1),  di = 2^i
//
// together with the cross-window mean D(di) and standard deviation σ(di)
// used for the ±1σ error bars of Fig. 3.
package hist

import (
	"errors"
	"math"
	"sort"

	"hybridplaw/internal/stats"
)

// ErrEmpty indicates a histogram with no observations.
var ErrEmpty = errors.New("hist: empty histogram")

// denseLimit is the largest degree stored in the dense array. Under
// power-law traffic the overwhelming majority of observations fall at
// small degrees, so the inner accumulation loop is an array increment;
// only the rare heavy tail (d > denseLimit) pays for a map operation.
const denseLimit = 1024

// Histogram is a degree histogram n(d): the number of observations of
// degree d for d >= 1. Degree 0 is excluded by construction (invisible
// nodes cannot be observed in traffic, Section V).
//
// The representation is hybrid: degrees 1..denseLimit live in a dense
// array sized on demand, degrees above it in a sparse map allocated only
// when the tail is first touched.
type Histogram struct {
	dense  []int64       // dense[d-1] = n(d) for 1 <= d <= len(dense)
	sparse map[int]int64 // n(d) for d > denseLimit; nil until needed
	total  int64
	maxDeg int // largest degree with a nonzero count ever added
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{}
}

// FromCounts builds a histogram from a degree → count map. Non-positive
// degrees or negative counts are rejected.
func FromCounts(counts map[int]int64) (*Histogram, error) {
	h := New()
	for d, c := range counts {
		if err := h.AddN(d, c); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// FromValues tallies a slice of observed degrees.
func FromValues(values []int64) (*Histogram, error) {
	h := New()
	for _, v := range values {
		if err := h.AddN(int(v), 1); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Add records one observation of degree d.
func (h *Histogram) Add(d int) error { return h.AddN(d, 1) }

// AddN records c observations of degree d. c may be zero (no-op).
func (h *Histogram) AddN(d int, c int64) error {
	if d < 1 {
		return errors.New("hist: degree must be >= 1")
	}
	if c < 0 {
		return errors.New("hist: negative count")
	}
	if c == 0 {
		return nil
	}
	h.add(d, c)
	return nil
}

// add is AddN after validation: d >= 1, c > 0.
func (h *Histogram) add(d int, c int64) {
	if d <= denseLimit {
		if d > len(h.dense) {
			n := 2 * len(h.dense)
			if n < d {
				n = d
			}
			if n > denseLimit {
				n = denseLimit
			}
			grown := make([]int64, n)
			copy(grown, h.dense)
			h.dense = grown
		}
		h.dense[d-1] += c
	} else {
		if h.sparse == nil {
			h.sparse = make(map[int]int64)
		}
		h.sparse[d] += c
	}
	h.total += c
	if d > h.maxDeg {
		h.maxDeg = d
	}
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.dense {
		if c != 0 {
			h.add(i+1, c)
		}
	}
	for d, c := range other.sparse {
		h.add(d, c)
	}
}

// Total returns the number of observations Σd n(d).
func (h *Histogram) Total() int64 { return h.total }

// Count returns n(d).
func (h *Histogram) Count(d int) int64 {
	switch {
	case d < 1:
		return 0
	case d <= len(h.dense):
		return h.dense[d-1]
	case d <= denseLimit:
		return 0
	default:
		return h.sparse[d]
	}
}

// MaxDegree returns dmax = argmax(n(d) > 0), the paper's Eq. (1) supernode
// size measure, or 0 for an empty histogram.
func (h *Histogram) MaxDegree() int { return h.maxDeg }

// Support returns the sorted degrees with nonzero counts.
func (h *Histogram) Support() []int {
	ds := make([]int, 0, len(h.sparse))
	for i, c := range h.dense {
		if c != 0 {
			ds = append(ds, i+1)
		}
	}
	tail := len(ds)
	for d := range h.sparse {
		ds = append(ds, d)
	}
	sort.Ints(ds[tail:])
	return ds
}

// Probability returns p(d) = n(d)/Σ n(d).
func (h *Histogram) Probability(d int) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	return float64(h.Count(d)) / float64(h.total)
}

// CumulativeAt returns P(d) = Σ_{i<=d} p(i).
func (h *Histogram) CumulativeAt(d int) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	var cum int64
	top := d
	if top > len(h.dense) {
		top = len(h.dense)
	}
	for i := 0; i < top; i++ {
		cum += h.dense[i]
	}
	for deg, c := range h.sparse {
		if deg <= d {
			cum += c
		}
	}
	return float64(cum) / float64(h.total)
}

// FractionDegreeOne returns D(d=1) = p(1), the fraction of nodes with only
// one connection, highlighted by the paper as the leaf/unattached signal.
func (h *Histogram) FractionDegreeOne() float64 { return h.Probability(1) }

// Pooled is a binary-logarithmically pooled differential cumulative
// distribution: Bin i covers degrees (2^{i-1}, 2^i] for i >= 1 and bin 0 is
// exactly degree 1, so that D(d0)=p(1) and D(di)=P(2^i)−P(2^{i-1}).
type Pooled struct {
	// D[i] is the pooled differential cumulative probability of bin i.
	D []float64
	// Total is the observation count behind the pooling.
	Total int64
}

// NumBins returns the number of pooled bins.
func (p *Pooled) NumBins() int { return len(p.D) }

// BinUpper returns the inclusive upper degree edge of bin i: 2^i.
func BinUpper(i int) int { return 1 << uint(i) }

// BinLower returns the exclusive lower degree edge of bin i (0 for bin 0).
func BinLower(i int) int {
	if i == 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// BinIndex returns the pooled bin index of degree d: ceil(log2(d)).
func BinIndex(d int) int {
	if d <= 1 {
		return 0
	}
	return bitsLen(uint(d - 1))
}

func bitsLen(x uint) int {
	n := 0
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}

// Pool converts the histogram to the pooled differential cumulative
// form. Counts are accumulated per bin as integers before the single
// division: integer addition is order-independent, so the pooled floats
// are bit-identical no matter how the sparse map iterates — float
// accumulation here once made σ(di) wobble by an ulp between otherwise
// identical runs, breaking byte-identical figure regeneration.
func (h *Histogram) Pool() (*Pooled, error) {
	if h.total == 0 {
		return nil, ErrEmpty
	}
	nbins := BinIndex(h.MaxDegree()) + 1
	counts := make([]int64, nbins)
	for i, c := range h.dense {
		if c != 0 {
			counts[BinIndex(i+1)] += c
		}
	}
	for deg, c := range h.sparse {
		counts[BinIndex(deg)] += c
	}
	d := make([]float64, nbins)
	for i, c := range counts {
		d[i] = float64(c) / float64(h.total)
	}
	return &Pooled{D: d, Total: h.total}, nil
}

// Mass returns Σi D(di); always 1 within rounding for a valid pooling.
func (p *Pooled) Mass() float64 {
	var s float64
	for _, v := range p.D {
		s += v
	}
	return s
}

// Ensemble accumulates pooled distributions across consecutive windows t
// and reports the per-bin mean D(di) and standard deviation σ(di)
// (Section II.A: "the corresponding mean and standard deviation of Dt(di)
// over many different consecutive values of t").
type Ensemble struct {
	accs []stats.Welford
}

// NewEnsemble returns an empty cross-window accumulator.
func NewEnsemble() *Ensemble { return &Ensemble{} }

// Add folds one window's pooled distribution into the ensemble. Windows may
// have different bin counts; shorter windows implicitly contribute zeros to
// the higher bins.
func (e *Ensemble) Add(p *Pooled) {
	if len(p.D) > len(e.accs) {
		grown := make([]stats.Welford, len(p.D))
		copy(grown, e.accs)
		// Back-fill zeros for bins that earlier windows implicitly had.
		for i := len(e.accs); i < len(grown); i++ {
			for k := 0; k < e.windows(); k++ {
				grown[i].Add(0)
			}
		}
		e.accs = grown
	}
	for i := range e.accs {
		v := 0.0
		if i < len(p.D) {
			v = p.D[i]
		}
		e.accs[i].Add(v)
	}
}

func (e *Ensemble) windows() int {
	if len(e.accs) == 0 {
		return 0
	}
	return e.accs[0].N()
}

// Windows returns the number of pooled windows accumulated.
func (e *Ensemble) Windows() int { return e.windows() }

// Mean returns the per-bin mean D(di).
func (e *Ensemble) Mean() []float64 {
	out := make([]float64, len(e.accs))
	for i := range e.accs {
		out[i] = e.accs[i].Mean()
	}
	return out
}

// Sigma returns the per-bin sample standard deviation σ(di).
func (e *Ensemble) Sigma() []float64 {
	out := make([]float64, len(e.accs))
	for i := range e.accs {
		out[i] = e.accs[i].StdDev()
	}
	return out
}
