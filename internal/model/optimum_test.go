package model_test

import (
	"math"
	"sync"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/model"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/stats"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
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

// stencilOptimum holds, per input and fitter, the optimum x and the
// objective of the solve whose gradient and Hessian were a seven-point
// finite-difference stencil, before the fits took them from their
// families' oracles (printed with %.17g).
var stencilOptimum = map[string]map[string]struct {
	x [2]float64
	f float64
}{
	"tokyo2015-source-packets": {
		"zm":        {[2]float64{1.9845550935004337, -0.55059379491187155}, 8.3585193952661268},
		"zm-mle":    {[2]float64{3.1509142118965849, 0.8746757564935268}, 476195.63478385482},
		"lognormal": {[2]float64{-1.3212079188078005, 1.3916239791832337}, 479919.30429657281},
		"truncplaw": {[2]float64{2.3186893533124109, 0}, 481751.17516459018},
	},
	"tokyo2017-source-fanout": {
		"zm":        {[2]float64{1.7069095240460113, -0.67604576612926426}, 0.095595682811704261},
		"zm-mle":    {[2]float64{1.6767814977826283, -0.69902415660888151}, 126048.83967238761},
		"lognormal": {[2]float64{-40, 5.5061099945649747}, 130317.92389892976},
		"truncplaw": {[2]float64{2.536630453604892, 0}, 132215.79942082884},
	},
	"chicagoA2016jan-link-packets": {
		"zm":        {[2]float64{2.3891368158468467, 0.6780625212130541}, 0.4095193215251729},
		"zm-mle":    {[2]float64{2.3419685386131515, 0.52350006019251316}, 272881.43487781211},
		"lognormal": {[2]float64{-2.1689111443157336, 1.9702543257895455}, 273220.51204107312},
		"truncplaw": {[2]float64{1.9357411947615784, 0.0057328336883334221}, 273770.04041059618},
	},
	"chicagoB2016mar-dest-fanin": {
		"zm":        {[2]float64{1.9729738740420997, 0.88915765224039067}, 5.0404157544507155},
		"zm-mle":    {[2]float64{3.2132090606655774, 6.6465025094664991}, 319948.6245522832},
		"lognormal": {[2]float64{1.2458830937314944, 0.9768892308041206}, 318450.16754151072},
		"truncplaw": {[2]float64{1.2591973446760032, 0.012687495825061991}, 347356.87074111606},
	},
	"chicagoA2016feb-dest-packets": {
		"zm":        {[2]float64{2.1996672695052348, 0.18576615811812205}, 1.9881905099510191},
		"zm-mle":    {[2]float64{3.7289483504928871, 3.8036238754036189}, 826229.31469087314},
		"lognormal": {[2]float64{0.46199543750857408, 0.99805616064397207}, 828142.23386147979},
		"truncplaw": {[2]float64{1.6010415850007369, 0.02464638697787282}, 867223.35520670051},
	},
	"tokyo2017-dest-packets": {
		"zm":        {[2]float64{1.8621346509924486, -0.57473100537640565}, 1.0698595237439072},
		"zm-mle":    {[2]float64{2.3962496807469398, -0.0027050432409201743}, 466109.34617970936},
		"lognormal": {[2]float64{-40, 5.8092148425930983}, 467867.16873387824},
		"truncplaw": {[2]float64{2.3990511379184385, 0}, 466109.46657779708},
	},
	"bench-palu": {
		"zm":        {[2]float64{2.0741578617107996, -0.74504813452082774}, 6.6751092199229971},
		"zm-mle":    {[2]float64{2.8788990222560114, -0.21758376906644528}, 80740.918315833711},
		"lognormal": {[2]float64{-40, 4.6382562843895778}, 80781.66654473306},
		"truncplaw": {[2]float64{3.279943728254862, 0}, 80867.313543912009},
	},
}

// fitBoxes is each solver-backed fitter's box.
var fitBoxes = map[string]stats.Box{
	"zm":        zipfmand.FitBox,
	"zm-mle":    zipfmand.FitBox,
	"lognormal": {Lo: [2]float64{-40, 0.05}, Hi: [2]float64{40, 20}},
	"truncplaw": {Lo: [2]float64{0.05, 0}, Hi: [2]float64{12, 2}},
}

// TestFitMatchesStencilOptima: each of the 28 solver fits ends where the
// stencil solve ended, to a stated tolerance. A parameter sits on a
// bound of its box exactly when the stencil's did; every parameter moves
// by at most 1e-6 of max(1, |x|) (the largest move measured is 3.4e-8,
// lognormal μ on tokyo2015-source-packets); and the objective is no
// higher than the stencil's by more than 1e-12 relative: the SSE for
// zm, the negated log-likelihood for the others.
func TestFitMatchesStencilOptima(t *testing.T) {
	if testing.Short() {
		t.Skip("streams every Fig. 3 panel")
	}
	const xTol, fTol = 1e-6, 1e-12
	reg := model.Default()
	var worst float64
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
			pin, box := stencilOptimum[in.id][name], fitBoxes[name]
			params := results[i].Model.Params()
			for k, p := range params[:2] {
				onBound := func(v float64) bool { return v == box.Lo[k] || v == box.Hi[k] }
				if onBound(p.Value) != onBound(pin.x[k]) {
					t.Errorf("%s %s: %s = %v, the stencil solve's %v: not on the same bound", in.id, name, p.Name, p.Value, pin.x[k])
				}
				d := math.Abs(p.Value-pin.x[k]) / math.Max(1, math.Abs(pin.x[k]))
				worst = math.Max(worst, d)
				if d > xTol {
					t.Errorf("%s %s: %s = %.17g, %.2g from the stencil solve's %.17g", in.id, name, p.Name, p.Value, d, pin.x[k])
				}
			}
			if got := objective(results[i]); got > pin.f+fTol*math.Abs(pin.f) {
				t.Errorf("%s %s: objective %.17g above the stencil solve's %.17g by %.2g relative",
					in.id, name, got, pin.f, (got-pin.f)/math.Abs(pin.f))
			}
		}
	}
	t.Logf("largest parameter move: %.2g of max(1, |x|)", worst)
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
// into the box (the KKT sign): one step of 1e-6 inward raises it, and
// the oracle's exact gradient points out of the box. On truncplaw's λ = 0 face, plaw fitted on
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
			// The oracle's exact gradient points out of the box there.
			if g := model.NegLogLikJet(f, in.h, [2]float64{params[0].Value, params[1].Value}).G; !(g[b.param] > 0) {
				t.Errorf("%s %s: ∂(−log L)/∂%s = %v at the bound, want > 0 (pointing out of the box)",
					in.id, name, params[b.param].Name, g[b.param])
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
