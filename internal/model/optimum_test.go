package model_test

import (
	"math"
	"sync"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/model"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/xrand"
)

// optimumInput is one histogram the optimum tests fit.
type optimumInput struct {
	id string
	h  *hist.Histogram
}

var (
	optimumOnce   sync.Once
	optimumInputs []optimumInput
)

// optimumHistograms returns the six Fig. 3 panel histograms (the ones
// modelsel/<panel> fits) and BenchmarkFit's 200k-observation PALU
// histogram, built once per test binary.
func optimumHistograms(t *testing.T) []optimumInput {
	t.Helper()
	optimumOnce.Do(func() {
		for _, spec := range netgen.Figure3Panels() {
			optimumInputs = append(optimumInputs, optimumInput{spec.ID, panelHistogram(t, spec)})
		}
		params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
		if err != nil {
			t.Fatal(err)
		}
		h, err := palu.FastObservedHistogram(params, 200000, 0.7, xrand.New(42))
		if err != nil {
			t.Fatal(err)
		}
		optimumInputs = append(optimumInputs, optimumInput{"bench-palu", h})
	})
	if len(optimumInputs) != 7 {
		t.Fatal("optimum test histograms were not built")
	}
	return optimumInputs
}

// objective is the value a fitter minimizes: zm's least-squares SSE, or
// the negated log-likelihood of the likelihood fitters.
func objective(r model.FitResult) float64 {
	if r.Fitter == "zm" {
		return r.Diag["sse"]
	}
	return -r.LogLik
}

// nelderMeadOptimum holds, per input and fitter, the best objective of
// the multi-start Nelder–Mead fits these fitters ran before the
// projected Newton solve (printed with %.17g).
var nelderMeadOptimum = map[string]map[string]float64{
	"tokyo2015-source-packets": {
		"zm": 8.358519395362638, "zm-mle": 476195.63479362172,
		"lognormal": 479919.3043028395, "truncplaw": 481751.17516891076,
	},
	"tokyo2017-source-fanout": {
		"zm": 0.095595682812868538, "zm-mle": 126048.8396764979,
		"lognormal": 130317.92390175701, "truncplaw": 132215.79943841492,
	},
	"chicagoA2016jan-link-packets": {
		"zm": 0.40951932153468618, "zm-mle": 272881.43488296511,
		"lognormal": 273220.51204319735, "truncplaw": 273770.04041551787,
	},
	"chicagoB2016mar-dest-fanin": {
		"zm": 5.0404157545009269, "zm-mle": 319948.62456269789,
		"lognormal": 318450.16754665883, "truncplaw": 347356.87074248167,
	},
	"chicagoA2016feb-dest-packets": {
		"zm": 1.9881905099798405, "zm-mle": 826229.31471370102,
		"lognormal": 828142.23387205089, "truncplaw": 867223.35521339532,
	},
	"tokyo2017-dest-packets": {
		"zm": 1.0698595237755555, "zm-mle": 466109.34618839173,
		"lognormal": 467867.16877766559, "truncplaw": 466109.46659420722,
	},
	"bench-palu": {
		"zm": 6.675109219972156, "zm-mle": 80740.918318085387,
		"lognormal": 80781.666557353819, "truncplaw": 80867.313544329416,
	},
}

var optimumFitters = []string{"zm", "zm-mle", "lognormal", "truncplaw"}

// zetaPlawLogLik holds, per input, plaw's log-likelihood at the
// infinite-support (ζ-normalized) MLE of α that plaw was fitted by
// before it maximized its own finite-support likelihood (printed with
// %.17g). On bench-palu that α already sits at the finite-support
// optimum (its log-likelihood equals truncplaw's at λ = 0), so the pin
// allows 1e-14 relative for rounding in the log-likelihood sums.
var zetaPlawLogLik = map[string]float64{
	"tokyo2015-source-packets":     -481751.17522750667,
	"tokyo2017-source-fanout":      -132215.80101142294,
	"chicagoA2016jan-link-packets": -274187.33411676949,
	"chicagoB2016mar-dest-fanin":   -353867.61802790128,
	"chicagoA2016feb-dest-packets": -876488.84262992069,
	"tokyo2017-dest-packets":       -466109.46661221527,
	"bench-palu":                   -80867.313543912009,
}

// TestFitOptimumPins: on each input, every solver-backed fitter ends at
// an objective no worse than Nelder–Mead's best plus 1e-9 relative, and
// plaw's log-likelihood is at least the one at the ζ-normalized α, less
// 1e-14 relative.
func TestFitOptimumPins(t *testing.T) {
	if testing.Short() {
		t.Skip("streams every Fig. 3 panel")
	}
	reg := model.Default()
	for _, in := range optimumHistograms(t) {
		results, errs, err := reg.FitAll(in.h, optimumFitters...)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range optimumFitters {
			if errs[i] != nil {
				t.Errorf("%s %s: %v", in.id, name, errs[i])
				continue
			}
			got, pin := objective(results[i]), nelderMeadOptimum[in.id][name]
			t.Logf("%s %s: %.17g (%+.2g relative to Nelder–Mead) %s, %g evaluations",
				in.id, name, got, (got-pin)/math.Abs(pin), results[i].ParamString(), results[i].Diag["evals"])
			if got > pin+1e-9*math.Abs(pin) {
				t.Errorf("%s %s: objective %.17g above Nelder–Mead's %.17g", in.id, name, got, pin)
			}
		}
		plaw, _ := reg.Lookup("plaw")
		pl, err := plaw.Fit(in.h)
		if err != nil {
			t.Fatalf("%s plaw: %v", in.id, err)
		}
		pin := zetaPlawLogLik[in.id]
		t.Logf("%s plaw: loglik %.17g (%+.2g above the ζ-normalized α's) %s", in.id, pl.LogLik, pl.LogLik-pin, pl.ParamString())
		if pl.LogLik < pin-1e-14*math.Abs(pin) {
			t.Errorf("%s plaw: loglik %.17g below the ζ-normalized α's %.17g", in.id, pl.LogLik, pin)
		}
	}
}

// onBound lists the fits whose optimum lies on a face of the box: the
// parameter index and the bound.
var onBound = map[string]map[string]struct {
	param int
	bound float64
}{
	"tokyo2015-source-packets": {"truncplaw": {1, 0}},
	"tokyo2017-source-fanout":  {"truncplaw": {1, 0}, "lognormal": {0, -40}},
	"tokyo2017-dest-packets":   {"truncplaw": {1, 0}, "lognormal": {0, -40}},
	"bench-palu":               {"truncplaw": {1, 0}, "lognormal": {0, -40}},
}

// TestFitStartIndependenceAndBounds: every candidate start, run alone,
// ends within 1e-12 relative of the fitter's own fit, and an optimum on
// a face of the box sits on the bound exactly with the objective rising
// into the box (the KKT sign). On truncplaw's λ = 0 face, plaw fitted on
// its own reaches the same log-likelihood within 1e-12 relative.
func TestFitStartIndependenceAndBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("streams every Fig. 3 panel")
	}
	reg := model.Default()
	for _, in := range optimumHistograms(t) {
		for _, name := range optimumFitters {
			f, _ := reg.Lookup(name)
			best, err := f.Fit(in.h)
			if err != nil {
				t.Fatalf("%s %s: %v", in.id, name, err)
			}
			fb := objective(best)
			starts, fits, errs := model.FitFromEachStart(f, in.h)
			for i, s := range starts {
				if errs[i] != nil {
					t.Errorf("%s %s from %v: %v", in.id, name, s, errs[i])
					continue
				}
				if d := math.Abs(objective(fits[i])-fb) / math.Abs(fb); d > 1e-12 {
					t.Errorf("%s %s from %v: objective %.17g, %.2g relative from the fit's %.17g",
						in.id, name, s, objective(fits[i]), d, fb)
				}
			}
			b, ok := onBound[in.id][name]
			if !ok {
				continue
			}
			params := best.Model.Params()
			if params[b.param].Value != b.bound {
				t.Errorf("%s %s: %s = %v, want the bound %v exactly", in.id, name,
					params[b.param].Name, params[b.param].Value, b.bound)
				continue
			}
			// Step into the box: the objective must rise.
			inward := [2]float64{params[0].Value, params[1].Value}
			inward[b.param] += 1e-6
			var m model.Model
			if name == "truncplaw" {
				m = &model.TruncPowerLaw{Alpha: inward[0], Lambda: inward[1]}
			} else {
				m = &model.Lognormal{Mu: inward[0], Sigma: inward[1]}
			}
			ll, err := m.LogLik(in.h)
			if err != nil {
				t.Fatal(err)
			}
			if -ll <= fb {
				t.Errorf("%s %s: objective %.17g one step into the box is not above the bound's %.17g",
					in.id, name, -ll, fb)
			}
			if name == "truncplaw" {
				plaw, _ := reg.Lookup("plaw")
				pl, err := plaw.Fit(in.h)
				if err != nil {
					t.Fatalf("%s plaw: %v", in.id, err)
				}
				if d := math.Abs(pl.LogLik-best.LogLik) / math.Abs(best.LogLik); d > 1e-12 {
					t.Errorf("%s plaw: loglik %.17g, %.2g relative from truncplaw's %.17g at λ = 0",
						in.id, pl.LogLik, d, best.LogLik)
				}
			}
		}
	}
}
