package model

// Likelihood-based model selection: AIC/BIC ranking with Akaike weights
// and a Vuong-style normalized log-likelihood-ratio test between the
// winner and every runner-up. This replaces the pooled log-SSE contrast
// of powerlaw.Compare (kept as a deprecated shim): SSE on pooled bins
// has no penalty for parameter count and no sampling distribution,
// whereas the normalized LLR is asymptotically standard normal under
// the null of equivalent fit (Vuong 1989).

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hybridplaw/internal/hist"
)

// VuongResult is one normalized log-likelihood-ratio comparison between
// a reference model and an alternative.
type VuongResult struct {
	// Ref and Alt name the compared fitters (Ref is the selection winner
	// in Selection.Vuong).
	Ref, Alt string
	// Z is the normalized LLR statistic: positive favours Ref. Under the
	// null of equivalent fit, Z is asymptotically standard normal.
	Z float64
	// P is the two-sided p-value of Z.
	P float64
	// N is the number of observations behind the statistic.
	N int64
}

// Vuong computes the normalized log-likelihood-ratio statistic between
// two models on a histogram: per-observation log-likelihood differences
// are accumulated degree-by-degree (each of the n(d) observations at
// degree d contributes ln pA(d) − ln pB(d)), and the statistic is
// √n·mean/sd. Both models must assign positive probability to every
// observed degree.
func Vuong(h *hist.Histogram, a, b Model) (VuongResult, error) {
	if err := validateHist(h); err != nil {
		return VuongResult{}, err
	}
	dmax := h.MaxDegree()
	pa, err := a.PMF(dmax)
	if err != nil {
		return VuongResult{}, fmt.Errorf("model: vuong %s pmf: %w", a.Name(), err)
	}
	pb, err := b.PMF(dmax)
	if err != nil {
		return VuongResult{}, fmt.Errorf("model: vuong %s pmf: %w", b.Name(), err)
	}
	n := float64(h.Total())
	var mean float64
	for _, d := range h.Support() {
		if pa[d-1] <= 0 || pb[d-1] <= 0 {
			return VuongResult{}, fmt.Errorf(
				"model: vuong undefined: zero probability at observed degree %d (%s vs %s)",
				d, a.Name(), b.Name())
		}
		mean += float64(h.Count(d)) * (math.Log(pa[d-1]) - math.Log(pb[d-1]))
	}
	mean /= n
	var varSum float64
	for _, d := range h.Support() {
		r := math.Log(pa[d-1]) - math.Log(pb[d-1]) - mean
		varSum += float64(h.Count(d)) * r * r
	}
	sd := math.Sqrt(varSum / n)
	res := VuongResult{Ref: a.Name(), Alt: b.Name(), N: h.Total()}
	if sd == 0 {
		// Identical pointwise likelihoods: no evidence either way.
		res.Z, res.P = 0, 1
		return res, nil
	}
	res.Z = math.Sqrt(n) * mean / sd
	res.P = math.Erfc(math.Abs(res.Z) / math.Sqrt2)
	return res, nil
}

// Selection is the outcome of likelihood-based model selection over a
// set of fits.
type Selection struct {
	// Results echoes the candidate fits in input order.
	Results []FitResult
	// Order ranks the comparable candidates by ascending AIC;
	// non-comparable fits (infinite likelihood) follow in input order.
	Order []int
	// BestIdx indexes the AIC winner in Results (-1 when no candidate is
	// comparable).
	BestIdx int
	// Weights are the Akaike weights aligned with Results (0 for
	// non-comparable fits).
	Weights []float64
	// Vuong holds the winner-vs-candidate LLR tests aligned with
	// Results; the winner's own slot and undefined comparisons are zero
	// VuongResults.
	Vuong []VuongResult
}

// Best returns the winning fit.
func (s Selection) Best() (FitResult, bool) {
	if s.BestIdx < 0 || s.BestIdx >= len(s.Results) {
		return FitResult{}, false
	}
	return s.Results[s.BestIdx], true
}

// Select ranks candidate fits on a histogram by AIC, computes Akaike
// weights, and runs the Vuong LLR test between the winner and every
// other comparable candidate.
func Select(h *hist.Histogram, results []FitResult) (Selection, error) {
	if err := validateHist(h); err != nil {
		return Selection{}, err
	}
	if len(results) == 0 {
		return Selection{}, fmt.Errorf("model: no candidate fits")
	}
	s := Selection{
		Results: append([]FitResult(nil), results...),
		BestIdx: -1,
		Weights: make([]float64, len(results)),
		Vuong:   make([]VuongResult, len(results)),
	}
	var comparable, rest []int
	for i, r := range results {
		if r.Comparable() {
			comparable = append(comparable, i)
		} else {
			rest = append(rest, i)
		}
	}
	sort.SliceStable(comparable, func(a, b int) bool {
		return results[comparable[a]].AIC < results[comparable[b]].AIC
	})
	s.Order = append(append([]int(nil), comparable...), rest...)
	if len(comparable) == 0 {
		return s, nil
	}
	s.BestIdx = comparable[0]
	bestAIC := results[s.BestIdx].AIC
	var wSum float64
	for _, i := range comparable {
		w := math.Exp(-(results[i].AIC - bestAIC) / 2)
		s.Weights[i] = w
		wSum += w
	}
	for _, i := range comparable {
		s.Weights[i] /= wSum
	}
	best := results[s.BestIdx]
	for _, i := range comparable {
		if i == s.BestIdx {
			continue
		}
		v, err := Vuong(h, best.Model, results[i].Model)
		if err != nil {
			continue // undefined comparison (support mismatch): leave zero
		}
		v.Ref, v.Alt = best.Fitter, results[i].Fitter
		s.Vuong[i] = v
	}
	return s, nil
}

// Table renders the selection as a deterministic aligned text table
// (best first, one candidate per line), the shared presentation of the
// palu-fit driver and the model-comparison scenarios.
func (s Selection) Table() string {
	var b strings.Builder
	bestAIC := math.NaN()
	if best, ok := s.Best(); ok {
		bestAIC = best.AIC
	}
	for rank, i := range s.Order {
		r := s.Results[i]
		if !r.Comparable() {
			fmt.Fprintf(&b, "%-10s %-34s excluded (log-likelihood %v)\n",
				r.Fitter, r.ParamString(), r.LogLik)
			continue
		}
		line := fmt.Sprintf("%-10s %-34s k=%-3d loglik=%-14.6g aic=%-14.6g daic=%-10.4g w=%.3f",
			r.Fitter, r.ParamString(), r.K, r.LogLik, r.AIC, r.AIC-bestAIC, s.Weights[i])
		if v := s.Vuong[i]; rank > 0 && v.Ref != "" {
			line += fmt.Sprintf(" vuong_z=%.2f p=%.3g", v.Z, v.P)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
