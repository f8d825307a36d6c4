package powerlaw

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/specialfn"
	"hybridplaw/internal/stats"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

func zetaSampleHistogram(t testing.TB, alpha float64, n int, seed uint64) *hist.Histogram {
	t.Helper()
	r := xrand.New(seed)
	h := hist.New()
	z := xrand.NewZetaSampler(alpha)
	for i := 0; i < n; i++ {
		d, err := z.Draw(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestFitAtXminRecoversAlpha(t *testing.T) {
	for _, alpha := range []float64{1.8, 2.2, 2.8} {
		h := zetaSampleHistogram(t, alpha, 200000, uint64(alpha*1000))
		f, err := FitAtXmin(h, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(f.Alpha-alpha) > 0.05 {
			t.Errorf("alpha = %v, want %v", f.Alpha, alpha)
		}
		if f.KS > 0.02 {
			t.Errorf("alpha=%v: KS = %v on true power-law data", alpha, f.KS)
		}
		if f.NTail != 200000 {
			t.Errorf("NTail = %d", f.NTail)
		}
	}
}

func TestFitAtXminErrors(t *testing.T) {
	if _, err := FitAtXmin(nil, 1); err == nil {
		t.Error("nil histogram: expected error")
	}
	if _, err := FitAtXmin(hist.New(), 1); err == nil {
		t.Error("empty histogram: expected error")
	}
	h, _ := hist.FromCounts(map[int]int64{1: 100})
	if _, err := FitAtXmin(h, 0); err == nil {
		t.Error("xmin=0: expected error")
	}
	if _, err := FitAtXmin(h, 50); err == nil {
		t.Error("xmin above support: expected error")
	}
}

func TestFitScanFindsCutoff(t *testing.T) {
	// Data that is power-law only above d=4: heavy uniform contamination
	// below. The scan should pick xmin >= 3 and recover alpha.
	r := xrand.New(99)
	tail := xrand.NewZetaSampler(2.5)
	h := hist.New()
	for i := 0; i < 30000; i++ {
		_ = h.Add(r.Intn(4) + 1) // uniform 1..4 head
	}
	for i := 0; i < 60000; i++ {
		d, err := tail.Draw(r)
		if err != nil {
			t.Fatal(err)
		}
		_ = h.Add(4 * d) // power-law tail starting at 4
	}
	f, err := FitScan(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Xmin < 3 {
		t.Errorf("xmin = %d, expected the contaminated head to be excluded", f.Xmin)
	}
	if math.Abs(f.Alpha-2.5) > 0.25 {
		t.Errorf("alpha = %v, want ~2.5", f.Alpha)
	}
}

func TestFitScanErrors(t *testing.T) {
	if _, err := FitScan(nil, 0); err == nil {
		t.Error("nil: expected error")
	}
	if _, err := FitScan(hist.New(), 0); err == nil {
		t.Error("empty: expected error")
	}
}

func TestSampleMatchesModel(t *testing.T) {
	f := Fit{Alpha: 2.5, Xmin: 2}
	r := xrand.New(7)
	h := hist.New()
	for range 100000 {
		x := f.draw(r)
		if x < int64(f.Xmin) {
			t.Fatalf("sample %d below xmin", x)
		}
		if err := h.Add(int(x)); err != nil {
			t.Fatal(err)
		}
	}
	// Refit: should recover alpha.
	rf, err := FitAtXmin(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rf.Alpha-2.5) > 0.08 {
		t.Errorf("refit alpha = %v", rf.Alpha)
	}
}

func TestBootstrapAcceptsTruePowerLaw(t *testing.T) {
	h := zetaSampleHistogram(t, 2.3, 3000, 11)
	f, err := FitScan(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BootstrapPValue(h, f, 30, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// True power-law data should not be strongly rejected.
	if p < 0.05 {
		t.Errorf("bootstrap p = %v for true power-law data", p)
	}
}

func TestBootstrapRejectsLeafHeavyData(t *testing.T) {
	// PALU data with strong leaf/unattached excess: the single power law
	// fitted over the full support should be rejected far more often.
	params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := palu.FastObservedHistogram(params, 30000, 0.7, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	f, err := FitAtXmin(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BootstrapPValue(h, f, 30, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.1 {
		t.Errorf("bootstrap p = %v; leaf-heavy data should be implausible under pure power law", p)
	}
}

func TestBootstrapErrors(t *testing.T) {
	h := zetaSampleHistogram(t, 2.3, 100, 1)
	f, err := FitAtXmin(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BootstrapPValue(h, f, 0, xrand.New(1)); err == nil {
		t.Error("reps=0: expected error")
	}
}

func TestCompareZMBeatsPowerLawOnPALUData(t *testing.T) {
	// E-X2: on leaf-heavy streaming-like data the two-parameter modified
	// Zipf–Mandelbrot must beat the one-parameter power law in KS and the
	// power law must miss the degree-1 mass badly.
	params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := palu.FastObservedHistogram(params, 300000, 0.7, xrand.New(33))
	if err != nil {
		t.Fatal(err)
	}
	zmFit, _, err := zipfmand.FitHistogram(h, zipfmand.DefaultFitOptions())
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(h, zmFit.SSE)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.CompetitorLogSSE >= cmp.PowerLawLogSSE/2 {
		t.Errorf("ZM log SSE %v should clearly beat power-law log SSE %v",
			cmp.CompetitorLogSSE, cmp.PowerLawLogSSE)
	}
	// The full-support MLE is pulled far from the tail exponent by the
	// degree-1 excess: the signature single-power-law failure.
	if cmp.TailGap < 0.3 {
		t.Errorf("tail gap = %v; expected the d=1 excess to distort the MLE", cmp.TailGap)
	}
}

func TestCompareOnPurePowerLaw(t *testing.T) {
	// Control: on true power-law data the single power law is adequate and
	// the tail gap is small.
	h := zetaSampleHistogram(t, 2.2, 200000, 88)
	cmp, err := Compare(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmp.PowerLawAlpha-2.2) > 0.05 {
		t.Errorf("alpha = %v", cmp.PowerLawAlpha)
	}
	if cmp.TailGap > 0.4 {
		t.Errorf("tail gap = %v on true power-law data", cmp.TailGap)
	}
}

func BenchmarkFitScan(b *testing.B) {
	// The KS bound cuts walks differently on a pure ζ sample and on the
	// suite's leaf-heavy PALU shape, so both are timed; palu-400k is that
	// shape at 400k nodes (131 xmin candidates).
	params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		b.Fatal(err)
	}
	leafHeavy, err := palu.FastObservedHistogram(params, 50000, 0.7, xrand.New(21))
	if err != nil {
		b.Fatal(err)
	}
	palu400k, err := palu.FastObservedHistogram(params, 400000, 0.7, xrand.New(21))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		h    *hist.Histogram
	}{
		{"zeta-2.2", zetaSampleHistogram(b, 2.2, 50000, 1)},
		{"palu-leaf-heavy", leafHeavy},
		{"palu-400k", palu400k},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FitScan(c.h, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFitAtXmin(b *testing.B) {
	h := zetaSampleHistogram(b, 2.2, 50000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitAtXmin(h, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// The golden* functions are the CSN scan as it was before the score
// solve: for each xmin, n and Σ c·ln d summed in ascending d, and α by
// golden section on [1.01, 6] to 1e-8. FitScan must choose the same
// xmin and reach at least their log likelihood.

// logLik is the CSN log likelihood −n·ln ζ(α, xmin) − α·Σ c·ln d over
// the tail d >= xmin, summed in ascending d.
func logLik(h *hist.Histogram, xmin int, alpha float64) float64 {
	z, err := specialfn.HurwitzZeta(alpha, float64(xmin))
	if err != nil {
		return math.Inf(-1)
	}
	var n int64
	var sumLog float64
	for _, d := range h.Support() {
		if d < xmin {
			continue
		}
		c := h.Count(d)
		n += c
		sumLog += float64(c) * math.Log(float64(d))
	}
	return -float64(n)*math.Log(z) - alpha*sumLog
}

// goldenAlpha is the golden-section α at one xmin, with its tail count.
func goldenAlpha(h *hist.Histogram, support []int, xmin int) (float64, int64, error) {
	var nTail int64
	var sumLog float64
	for _, d := range support {
		if d < xmin {
			continue
		}
		c := h.Count(d)
		nTail += c
		sumLog += float64(c) * math.Log(float64(d))
	}
	if nTail < 2 {
		return 0, nTail, fmt.Errorf("powerlaw: only %d observations above xmin=%d", nTail, xmin)
	}
	zeta := specialfn.NewHurwitz(float64(xmin))
	neg := func(alpha float64) float64 {
		z, err := zeta.Zeta(alpha)
		if err != nil {
			return math.Inf(1)
		}
		return float64(nTail)*math.Log(z) + alpha*sumLog
	}
	alpha, err := stats.GoldenSection(neg, 1.01, 6, 1e-8)
	return alpha, nTail, err
}

func goldenFitAt(h *hist.Histogram, support []int, xmin int, ksBound float64) (Fit, error) {
	alpha, nTail, err := goldenAlpha(h, support, xmin)
	if err != nil {
		return Fit{}, err
	}
	fit := Fit{Alpha: alpha, Xmin: xmin, NTail: nTail}
	zeta := specialfn.NewHurwitz(float64(xmin))
	fit.KS, err = ksDistance(h, support, fit, &zeta, ksBound)
	if err != nil {
		return Fit{}, err
	}
	return fit, nil
}

func goldenFitScan(h *hist.Histogram, maxXmin int) (Fit, error) {
	if h == nil || h.Total() == 0 {
		return Fit{}, errors.New("powerlaw: empty histogram")
	}
	support := h.Support()
	if maxXmin <= 0 {
		maxXmin = support[int(0.9*float64(len(support)-1))]
		if maxXmin < 1 {
			maxXmin = 1
		}
	}
	best := Fit{KS: math.Inf(1)}
	found := false
	for _, xmin := range support {
		if xmin > maxXmin {
			break
		}
		f, err := goldenFitAt(h, support, xmin, best.KS)
		if err != nil {
			continue
		}
		if f.KS < best.KS {
			best = f
			found = true
		}
	}
	if !found {
		return Fit{}, errors.New("powerlaw: no viable xmin")
	}
	return best, nil
}

func refKSDistance(h *hist.Histogram, f Fit) (float64, error) {
	z, err := specialfn.HurwitzZeta(f.Alpha, float64(f.Xmin))
	if err != nil {
		return 0, err
	}
	var obs []float64
	var modelCDF []float64
	var cum float64
	var modelCum float64
	var total float64
	support := h.Support()
	for _, d := range support {
		if d >= f.Xmin {
			total += float64(h.Count(d))
		}
	}
	if total == 0 {
		return 0, errors.New("powerlaw: empty tail")
	}
	maxD := support[len(support)-1]
	for d := f.Xmin; d <= maxD; d++ {
		modelCum += math.Pow(float64(d), -f.Alpha) / z
		if c := h.Count(d); c > 0 {
			cum += float64(c) / total
			obs = append(obs, cum)
			modelCDF = append(modelCDF, modelCum)
		}
	}
	var maxDiff float64
	for i := range obs {
		if diff := math.Abs(obs[i] - modelCDF[i]); diff > maxDiff {
			maxDiff = diff
		}
	}
	return maxDiff, nil
}

// contaminatedHistogram is power law above 4 with a uniform head below:
// the case where the scan's xmin matters.
func contaminatedHistogram(t testing.TB, nHead, nTail int, seed uint64) *hist.Histogram {
	t.Helper()
	r := xrand.New(seed)
	tail := xrand.NewZetaSampler(2.5)
	h := hist.New()
	for i := 0; i < nHead; i++ {
		if err := h.Add(r.Intn(4) + 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nTail; i++ {
		d, err := tail.Draw(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Add(4 * d); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// scanCases are the histograms the CSN scan pins run on.
func scanCases(t *testing.T) map[string]*hist.Histogram {
	t.Helper()
	cases := map[string]*hist.Histogram{}
	for i, seed := range []uint64{21, 33} {
		params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
		if err != nil {
			t.Fatal(err)
		}
		h, err := palu.FastObservedHistogram(params, 20000*(i+1), 0.7, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("palu-leaf-heavy-%d", seed)] = h
	}
	// The KS reference walks every degree up to the maximum, which at
	// α = 1.5 grows like n²: 300 draws at seed 5 top out near 35k degrees,
	// which keeps the reference walk quick.
	cases["zeta-1.5"] = zetaSampleHistogram(t, 1.5, 300, 5)
	for _, alpha := range []float64{2, 2.5, 3} {
		cases[fmt.Sprintf("zeta-%v", alpha)] = zetaSampleHistogram(t, alpha, 5000, uint64(alpha*100))
	}
	cases["contaminated"] = contaminatedHistogram(t, 3000, 6000, 99)
	gappy, err := hist.FromCounts(map[int]int64{
		1: 400, 2: 120, 5: 31, 9: 12, 40: 5, 700: 3, 1024: 2, 1025: 2, 3000: 1, 50000: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases["gaps-and-sparse"] = gappy
	two, err := hist.FromCounts(map[int]int64{3: 7, 2000: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases["two-point"] = two
	return cases
}

// benchPALUHistogram is the 200k-observation PALU histogram of the
// model package's BenchmarkFit.
func benchPALUHistogram(t testing.TB) *hist.Histogram {
	t.Helper()
	params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := palu.FastObservedHistogram(params, 200000, 0.7, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// The score solve against golden section. Golden section stops on a
// 1e-8 bracket, so its α is within about 5e-9 of the optimum; the score
// solve's is within rounding of it. The KS statistic moves with α.
const (
	goldenAlphaTol  = 1e-7  // |Δα|
	goldenLogLikTol = 1e-12 // log L may fall this far below golden section's, relative
	goldenKSTol     = 1e-7  // |ΔKS|
)

// toleranceStats accumulates the largest differences a tolerance check
// saw, for the test log.
type toleranceStats struct {
	candidates         int
	maxCandidateDAlpha float64 // over every candidate xmin
	maxDAlpha          float64 // over the returned fits
	maxLogLikDeficit   float64 // relative; negative when every log L rose
	maxDKS             float64
}

func (s *toleranceStats) String() string {
	return fmt.Sprintf("%d candidates (max |Δα| %.3g), returned fits max |Δα| %.3g, max |ΔKS| %.3g, max relative log L deficit %.3g",
		s.candidates, s.maxCandidateDAlpha, s.maxDAlpha, s.maxDKS, s.maxLogLikDeficit)
}

// checkLogLik compares the log likelihood of one α with golden
// section's at the same xmin, and returns |Δα|.
func (s *toleranceStats) checkLogLik(t testing.TB, what string, h *hist.Histogram, xmin int, got, want float64) float64 {
	t.Helper()
	gotLL, wantLL := logLik(h, xmin, got), logLik(h, xmin, want)
	deficit := (wantLL - gotLL) / math.Abs(wantLL)
	s.maxLogLikDeficit = math.Max(s.maxLogLikDeficit, deficit)
	if deficit > goldenLogLikTol {
		t.Errorf("%s: log L %.17g, golden section %.17g (%.3g relative below)", what, gotLL, wantLL, deficit)
	}
	return math.Abs(got - want)
}

// checkAlpha is checkLogLik for a returned fit, which also holds α
// within goldenAlphaTol of golden section's.
func (s *toleranceStats) checkAlpha(t testing.TB, what string, h *hist.Histogram, xmin int, got, want float64) {
	t.Helper()
	dAlpha := s.checkLogLik(t, what, h, xmin, got, want)
	s.maxDAlpha = math.Max(s.maxDAlpha, dAlpha)
	if dAlpha > goldenAlphaTol {
		t.Errorf("%s: α %.17g, golden section %.17g (|Δα| %.3g)", what, got, want, dAlpha)
	}
}

// checkWithinTolerance pins the score solve on h against golden section:
// the α of every candidate xmin of the default scan, FitScan at each
// scan cap in maxXmins, and FitAtXmin at each xmin in xmins. FitScan
// must choose golden section's xmin (a KS near-tie that flips it is
// reported with both KS values) and return FitAtXmin's fit there.
func checkWithinTolerance(t testing.TB, name string, h *hist.Histogram, maxXmins, xmins []int) *toleranceStats {
	t.Helper()
	s := &toleranceStats{maxLogLikDeficit: math.Inf(-1)}
	support := h.Support()
	maxXmin := support[int(0.9*float64(len(support)-1))]
	nTail, sumLog := tailSums(h, support)
	for i, xmin := range support {
		if xmin > maxXmin {
			break
		}
		want, wantN, wantErr := goldenAlpha(h, support, xmin)
		if wantN != nTail[i] {
			t.Fatalf("%s xmin=%d: tail count %d, golden section %d", name, xmin, nTail[i], wantN)
		}
		if wantErr != nil {
			continue
		}
		zeta := specialfn.NewHurwitz(float64(xmin))
		got, err := csnAlpha(&zeta, float64(nTail[i]), sumLog[i], float64(xmin))
		if err != nil {
			t.Fatalf("%s xmin=%d: %v", name, xmin, err)
		}
		dAlpha := s.checkLogLik(t, fmt.Sprintf("%s xmin=%d", name, xmin), h, xmin, got, want)
		s.maxCandidateDAlpha = math.Max(s.maxCandidateDAlpha, dAlpha)
		s.candidates++
	}
	for _, maxXmin := range maxXmins {
		got, gotErr := FitScan(h, maxXmin)
		want, wantErr := goldenFitScan(h, maxXmin)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s maxXmin=%d: error %v, golden section %v", name, maxXmin, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		what := fmt.Sprintf("%s maxXmin=%d", name, maxXmin)
		if got.Xmin != want.Xmin || got.NTail != want.NTail {
			t.Errorf("%s: xmin %d (KS %.17g, ntail %d), golden section xmin %d (KS %.17g, ntail %d)",
				what, got.Xmin, got.KS, got.NTail, want.Xmin, want.KS, want.NTail)
			continue
		}
		s.checkAlpha(t, what, h, got.Xmin, got.Alpha, want.Alpha)
		dKS := math.Abs(got.KS - want.KS)
		s.maxDKS = math.Max(s.maxDKS, dKS)
		if dKS > goldenKSTol {
			t.Errorf("%s: KS %.17g, golden section %.17g", what, got.KS, want.KS)
		}
		if at, err := FitAtXmin(h, got.Xmin); err != nil || at != got {
			t.Errorf("%s: FitScan %+v, FitAtXmin at its xmin %+v, %v", what, got, at, err)
		}
	}
	for _, xmin := range xmins {
		got, gotErr := FitAtXmin(h, xmin)
		want, wantErr := goldenFitAt(h, support, xmin, math.Inf(1))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s xmin=%d: FitAtXmin error %v, golden section %v", name, xmin, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			continue
		}
		what := fmt.Sprintf("%s FitAtXmin(%d)", name, xmin)
		if got.Xmin != want.Xmin || got.NTail != want.NTail {
			t.Errorf("%s: %+v, golden section %+v", what, got, want)
		}
		s.checkAlpha(t, what, h, xmin, got.Alpha, want.Alpha)
		if dKS := math.Abs(got.KS - want.KS); dKS > goldenKSTol {
			t.Errorf("%s: KS %.17g, golden section %.17g", what, got.KS, want.KS)
		}
	}
	return s
}

// TestFitScanWithinTolerance: the score solve chooses golden section's
// xmin on every case and cap, and its α is within goldenAlphaTol of
// golden section's, at no lower log likelihood, at every candidate.
func TestFitScanWithinTolerance(t *testing.T) {
	cases := scanCases(t)
	cases["bench-palu"] = benchPALUHistogram(t)
	for name, h := range cases {
		support := h.Support()
		maxXmins := []int{0, 1, 2, 5, support[len(support)/2], support[len(support)-1], 1 << 30}
		xmins := []int{1, 2, 4, support[len(support)-1], support[len(support)-1] + 1}
		s := checkWithinTolerance(t, name, h, maxXmins, xmins)
		t.Logf("%s: %v", name, s)
	}
}

// ksExitsEarly reports whether ksDistance's early exit fires before the
// last support point, by replaying its walk.
func ksExitsEarly(t *testing.T, h *hist.Histogram, f Fit) bool {
	t.Helper()
	z, err := specialfn.HurwitzZeta(f.Alpha, float64(f.Xmin))
	if err != nil {
		t.Fatal(err)
	}
	total := float64(f.NTail)
	support := h.Support()
	maxD := support[len(support)-1]
	var cum, modelCum, maxDiff float64
	for d := f.Xmin; d < maxD; d++ {
		modelCum += math.Pow(float64(d), -f.Alpha) / z
		c := h.Count(d)
		if c == 0 {
			continue
		}
		cum += float64(c) / total
		maxDiff = math.Max(maxDiff, math.Abs(cum-modelCum))
		if maxDiff > 1+ksMargin-math.Min(cum, modelCum) {
			return true
		}
	}
	return false
}

func TestKSDistanceMatchesFullWalk(t *testing.T) {
	var fired, walked int
	for name, h := range scanCases(t) {
		support := h.Support()
		for _, xmin := range []int{1, 2, 4} {
			zeta := specialfn.NewHurwitz(float64(xmin))
			for _, alpha := range []float64{1.2, 2, 2.5, 4} {
				f := Fit{Alpha: alpha, Xmin: xmin}
				for _, d := range support {
					if d >= xmin {
						f.NTail += h.Count(d)
					}
				}
				if f.NTail == 0 {
					continue
				}
				got, err := ksDistance(h, support, f, &zeta, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				want, err := refKSDistance(h, f)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s xmin=%d alpha=%v: KS %v, full walk %v", name, xmin, alpha, got, want)
				}
				if ksExitsEarly(t, h, f) {
					fired++
				} else {
					walked++
				}
			}
		}
	}
	t.Logf("early exit fired in %d cases, full walk in %d", fired, walked)
	if fired == 0 || walked == 0 {
		t.Errorf("early exit fired in %d cases and not in %d; both must be covered", fired, walked)
	}
}

func TestKSDistanceBound(t *testing.T) {
	for name, h := range scanCases(t) {
		support := h.Support()
		for _, xmin := range []int{1, 2, 4} {
			zeta := specialfn.NewHurwitz(float64(xmin))
			for _, alpha := range []float64{1.2, 2, 2.5, 4} {
				f := Fit{Alpha: alpha, Xmin: xmin}
				for _, d := range support {
					if d >= xmin {
						f.NTail += h.Count(d)
					}
				}
				if f.NTail == 0 {
					continue
				}
				want, err := refKSDistance(h, f)
				if err != nil {
					t.Fatal(err)
				}
				full, err := ksDistance(h, support, f, &zeta, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(full) != math.Float64bits(want) {
					t.Errorf("%s xmin=%d alpha=%v: unbounded KS %v, full walk %v", name, xmin, alpha, full, want)
				}
				above := []float64{math.Nextafter(want, 2), want * 1.5, want + 0.1, 1, 2}
				for _, bound := range above {
					if bound <= want {
						continue
					}
					got, err := ksDistance(h, support, f, &zeta, bound)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s xmin=%d alpha=%v bound=%v: KS %v, full walk %v", name, xmin, alpha, bound, got, want)
					}
				}
				atOrBelow := []float64{want, math.Nextafter(want, 0), want / 2, want / 100, 0}
				for _, bound := range atOrBelow {
					got, err := ksDistance(h, support, f, &zeta, bound)
					if err != nil {
						t.Fatal(err)
					}
					if !(got >= bound) {
						t.Errorf("%s xmin=%d alpha=%v bound=%v: cut KS %v is below the bound", name, xmin, alpha, bound, got)
					}
				}
			}
		}
	}

	// FitScan passes the best KS so far as the bound. Count the scan
	// candidates whose walk it cuts on the suite's leaf-heavy shape, so
	// the pins above are known to cover the cut FitScan makes.
	params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := palu.FastObservedHistogram(params, 20000, 0.7, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	support := h.Support()
	maxXmin := support[int(0.9*float64(len(support)-1))]
	nTail, sumLog := tailSums(h, support)
	best := math.Inf(1)
	var candidates, cut int
	for i, xmin := range support {
		if xmin > maxXmin {
			break
		}
		full, err := fitAt(h, support, xmin, nTail[i], sumLog[i], math.Inf(1))
		if err != nil {
			continue
		}
		bounded, err := fitAt(h, support, xmin, nTail[i], sumLog[i], best)
		if err != nil {
			t.Fatal(err)
		}
		candidates++
		if bounded.KS != full.KS {
			cut++
			if !(bounded.KS >= best) {
				t.Errorf("xmin=%d: cut KS %v is below the bound %v", xmin, bounded.KS, best)
			}
		}
		best = math.Min(best, full.KS)
	}
	t.Logf("the bound cut %d of %d scan candidates", cut, candidates)
	if cut == 0 {
		t.Errorf("the bound cut none of %d scan candidates", candidates)
	}
}

func TestBootstrapPValuePinned(t *testing.T) {
	// p-values recorded from the implementation that drew each synthetic
	// tail observation through a one-element Sample call, whose stream
	// draw reproduces.
	cases := []struct {
		name string
		h    *hist.Histogram
		want float64
	}{
		{"zeta-2.3", zetaSampleHistogram(t, 2.3, 2000, 11), 0.675},
		{"contaminated", contaminatedHistogram(t, 600, 1200, 99), 0.3},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		f, err := FitScan(c.h, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			p, err := BootstrapPValue(c.h, f, 40, xrand.New(5))
			if err != nil {
				t.Fatal(err)
			}
			if p != c.want {
				t.Errorf("%s GOMAXPROCS=%d: p = %v, want %v", c.name, procs, p, c.want)
			}
		}
	}
}
