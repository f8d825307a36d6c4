package model

import (
	"math"
	"strings"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

// TestSelectZMFamilyWinsOnPALUTraffic is the headline acceptance pin:
// on PALU-generated traffic, the modified Zipf–Mandelbrot family wins
// the likelihood-based selection among the approximating families
// (zm/zm-mle vs the power-law baselines, the discrete lognormal and the
// truncated power law), and beats the single power law decisively under
// the Vuong test. The generative Section IV.B law itself — the truth
// the traffic was sampled from — is deliberately not a candidate here;
// its recovery is pinned by TestRegistryEquivalencePins and the
// recovery experiment.
func TestSelectZMFamilyWinsOnPALUTraffic(t *testing.T) {
	h := paluHistogram(t, 300000, 7)
	reg := Default()
	results, errs, err := reg.FitAll(h, "zm", "zm-mle", "csn", "plaw", "lognormal", "truncplaw")
	if err != nil {
		t.Fatal(err)
	}
	var ok []FitResult
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("%s: fit failed: %v", r.Fitter, errs[i])
		}
		ok = append(ok, r)
	}
	sel, err := Select(h, ok)
	if err != nil {
		t.Fatal(err)
	}
	best, found := sel.Best()
	if !found {
		t.Fatal("no comparable candidate")
	}
	if best.Model.Name() != "zm" {
		t.Errorf("winner on PALU traffic = %s (%s), want the zm family\n%s",
			best.Fitter, best.ParamString(), sel.Table())
	}
	// The single power law must lose decisively (the paper's E-X2 claim
	// in likelihood form).
	for i, r := range sel.Results {
		if r.Fitter != "plaw" {
			continue
		}
		v := sel.Vuong[i]
		if !v.Decisive(0.01) {
			t.Errorf("Vuong vs single power law not decisive: z=%v p=%v", v.Z, v.P)
		}
	}
}

// TestSelectRecoversGeneratingFamily samples from a known ZM model and
// verifies selection identifies the family against the alternatives.
func TestSelectRecoversGeneratingFamily(t *testing.T) {
	pmf, err := zipfmand.Model{Alpha: 2.2, Delta: 1.5}.PMF(5000)
	if err != nil {
		t.Fatal(err)
	}
	alias, err := xrand.NewAlias(pmf)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(23)
	xs := make([]int64, 150000)
	for i := range xs {
		xs[i] = int64(alias.Draw(rng)) + 1
	}
	h, err := hist.FromValues(xs)
	if err != nil {
		t.Fatal(err)
	}
	results, errs, err := Default().FitAll(h, "zm-mle", "plaw", "lognormal", "truncplaw")
	if err != nil {
		t.Fatal(err)
	}
	var ok []FitResult
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("%s: %v", r.Fitter, errs[i])
		}
		ok = append(ok, r)
	}
	sel, err := Select(h, ok)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := sel.Best()
	if best.Fitter != "zm-mle" {
		t.Errorf("winner = %s, want zm-mle\n%s", best.Fitter, sel.Table())
	}
	zm := best.Model.(*ZM)
	if math.Abs(zm.ZM.Alpha-2.2) > 0.1 || math.Abs(zm.ZM.Delta-1.5) > 0.4 {
		t.Errorf("recovered (alpha=%.3f delta=%.3f), want near (2.2, 1.5)", zm.ZM.Alpha, zm.ZM.Delta)
	}
}

func TestVuongAntisymmetryAndSelfComparison(t *testing.T) {
	h := paluHistogram(t, 50000, 13)
	a := &ZM{ZM: zipfmand.Model{Alpha: 2.0, Delta: 0.5}}
	b := &PowerLaw{Alpha: 2.5, Xmin: 1}
	ab, err := Vuong(h, a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Vuong(h, b, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ab.Z+ba.Z) > 1e-9 {
		t.Errorf("Vuong not antisymmetric: %v vs %v", ab.Z, ba.Z)
	}
	if ab.P != ba.P {
		t.Errorf("p-values differ: %v vs %v", ab.P, ba.P)
	}
	self, err := Vuong(h, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if self.Z != 0 || self.P != 1 {
		t.Errorf("self comparison: z=%v p=%v, want 0, 1", self.Z, self.P)
	}
}

func TestVuongSupportMismatch(t *testing.T) {
	h, err := hist.FromCounts(map[int]int64{1: 100, 2: 50, 3: 20, 8: 5})
	if err != nil {
		t.Fatal(err)
	}
	full := &PowerLaw{Alpha: 2, Xmin: 1}
	tailOnly := &PowerLaw{Alpha: 2, Xmin: 2}
	if _, err := Vuong(h, full, tailOnly); err == nil {
		t.Error("expected error for zero-probability observed degree")
	}
}

// TestSelectExcludesInfiniteLogLik crafts a candidate that assigns zero
// probability to observed data and verifies it is excluded from the
// ranking but still rendered.
func TestSelectExcludesInfiniteLogLik(t *testing.T) {
	h, err := hist.FromCounts(map[int]int64{1: 1000, 2: 300, 3: 100, 10: 10, 50: 2})
	if err != nil {
		t.Fatal(err)
	}
	okModel := &PowerLaw{Alpha: 2, Xmin: 1}
	badModel := &PowerLaw{Alpha: 2, Xmin: 5}
	mk := func(m Model) FitResult {
		r, err := finish(m.Name(), m, 1, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	good, bad := mk(okModel), mk(badModel)
	bad.Fitter = "plaw-tail"
	if bad.Comparable() {
		t.Fatal("tail-only model should have -Inf loglik here")
	}
	sel, err := Select(h, []FitResult{bad, good})
	if err != nil {
		t.Fatal(err)
	}
	best, found := sel.Best()
	if !found || best.Fitter != "plaw" {
		t.Errorf("best = %+v, want plaw", best)
	}
	if sel.Weights[0] != 0 {
		t.Errorf("excluded candidate has weight %v", sel.Weights[0])
	}
	table := sel.Table()
	if !strings.Contains(table, "excluded") {
		t.Errorf("table does not mark exclusion:\n%s", table)
	}
	if !strings.Contains(table, "plaw-tail") {
		t.Errorf("table omits excluded candidate:\n%s", table)
	}
}

func TestSelectErrors(t *testing.T) {
	if _, err := Select(hist.New(), nil); err == nil {
		t.Error("empty histogram: expected error")
	}
	h, _ := hist.FromCounts(map[int]int64{1: 10})
	if _, err := Select(h, nil); err == nil {
		t.Error("no candidates: expected error")
	}
}

// TestAkaikeWeightsSumToOne checks weight normalization over the
// comparable candidates.
func TestAkaikeWeightsSumToOne(t *testing.T) {
	h := paluHistogram(t, 50000, 29)
	results, errs, err := Default().FitAll(h, "zm-mle", "plaw", "truncplaw")
	if err != nil {
		t.Fatal(err)
	}
	var ok []FitResult
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("%s: %v", r.Fitter, errs[i])
		}
		ok = append(ok, r)
	}
	sel, err := Select(h, ok)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range sel.Weights {
		if w < 0 || w > 1 {
			t.Errorf("weight %v outside [0,1]", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
}
