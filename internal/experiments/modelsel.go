package experiments

// The model-comparison scenario family: per-Fig.-3-panel selection
// tables across the registered model families, plus the PALU-generated
// reference selection. This is the likelihood-based replacement for the
// deprecated pooled log-SSE contrast (powerlaw.Compare): each candidate
// family is fitted through the model registry and ranked by AIC with
// Akaike weights, and the winner is tested against every runner-up with
// the Vuong normalized log-likelihood-ratio test.

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/model"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/scenario"
	"hybridplaw/internal/xrand"
)

// modelSelFitters is the candidate list of the per-panel comparison:
// every registered family. The Section IV.B law participates as a
// candidate — on its own traffic it should win, and on panel traffic
// the table records how far the measured quantities deviate from the
// pure degree law.
func modelSelFitters(reg *model.Registry) []string { return reg.Names() }

// approximatingFitters is the candidate list of the PALU-generated
// reference selection: the closed-form approximating families only. The
// generative Section IV.B law is excluded there by design — the
// question the paper asks of PALU traffic is which *approximating*
// family describes it best (the answer being the modified
// Zipf–Mandelbrot), not whether the generator recognizes itself.
func approximatingFitters() []string {
	return []string{"zm", "zm-mle", "csn", "plaw", "lognormal", "truncplaw"}
}

// ModelSelectionResult is one selection table: candidate fits ranked by
// likelihood on a single merged histogram.
type ModelSelectionResult struct {
	// Name identifies the data ("fig3 panel tokyo2015-…", "palu-observed").
	Name string
	// Quantity is the measured network quantity (empty for direct
	// model-sampled histograms).
	Quantity string
	// N and DMax describe the fitted histogram.
	N    int64
	DMax int
	// Selection is the ranked outcome over the successful fits.
	Selection model.Selection
	// Failed records fitters that produced no fit, in candidate order.
	Failed []FitFailure
}

// FitFailure is one fitter that could not produce a candidate.
type FitFailure struct {
	Fitter string
	Err    string
}

// Winner returns the name of the AIC winner ("" when nothing fit).
func (r ModelSelectionResult) Winner() string {
	best, ok := r.Selection.Best()
	if !ok {
		return ""
	}
	return best.Fitter
}

// WinnerFamily returns the model family of the AIC winner.
func (r ModelSelectionResult) WinnerFamily() string {
	best, ok := r.Selection.Best()
	if !ok {
		return ""
	}
	return best.Model.Name()
}

// BestParsimonious returns the best-ranked candidate with at most two
// free parameters — the paper's operating regime (closed-form families
// an operator can actually quote).
func (r ModelSelectionResult) BestParsimonious() (model.FitResult, bool) {
	for _, i := range r.Selection.Order {
		res := r.Selection.Results[i]
		if res.Comparable() && res.K <= 2 {
			return res, true
		}
	}
	return model.FitResult{}, false
}

// Summary renders the selection table fragment.
func (r ModelSelectionResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d dmax=%d", r.N, r.DMax)
	if r.Quantity != "" {
		fmt.Fprintf(&b, " quantity=%s", r.Quantity)
	}
	b.WriteByte('\n')
	b.WriteString(r.Selection.Table())
	for _, f := range r.Failed {
		fmt.Fprintf(&b, "%-10s fit failed: %s\n", f.Fitter, f.Err)
	}
	if best, ok := r.Selection.Best(); ok {
		fmt.Fprintf(&b, "winner: %s (family %s)", best.Fitter, best.Model.Name())
		if p, ok := r.BestParsimonious(); ok {
			fmt.Fprintf(&b, "; best k<=2 family: %s (%s)", p.Model.Name(), p.Fitter)
		}
		b.WriteByte('\n')
		if len(best.Diag) > 0 {
			fmt.Fprintf(&b, "winner diagnostics: %s\n", diagString(best.Diag))
		}
	}
	return b.String()
}

// selectModels fits the candidates and ranks the successes.
func selectModels(name, quantity string, h *hist.Histogram, reg *model.Registry, fitters []string) (ModelSelectionResult, error) {
	res := ModelSelectionResult{
		Name: name, Quantity: quantity, N: h.Total(), DMax: h.MaxDegree(),
	}
	results, errs, err := reg.FitAll(h, fitters...)
	if err != nil {
		return ModelSelectionResult{}, err
	}
	var ok []model.FitResult
	for i, r := range results {
		if errs[i] != nil {
			res.Failed = append(res.Failed, FitFailure{Fitter: fitters[i], Err: errs[i].Error()})
			continue
		}
		ok = append(ok, r)
	}
	if len(ok) == 0 {
		return ModelSelectionResult{}, fmt.Errorf("experiments: every candidate fit failed on %s", name)
	}
	res.Selection, err = model.Select(h, ok)
	if err != nil {
		return ModelSelectionResult{}, err
	}
	return res, nil
}

// runModelSelectionPanel is the "modelsel/<panel>" scenario compute: it
// fits every registered family to one Fig. 3 panel's merged
// cross-window histogram and ranks them.
func runModelSelectionPanel(ctx *scenario.Context, spec netgen.PanelSpec) (ModelSelectionResult, error) {
	sink, err := panelEnsemble(ctx, spec)
	if err != nil {
		return ModelSelectionResult{}, err
	}
	reg := model.Default().Instrument(ctx.FitMetrics())
	return selectModels("fig3 panel "+spec.ID, spec.Quantity.String(),
		sink.Merged(spec.Quantity), reg, modelSelFitters(reg))
}

// modelSelectionPALU ranks the approximating families on a
// PALU-generated observed histogram (the E-X2 leaf-heavy reference
// traffic), with its fits timed by m: the "modelsel/palu-observed"
// scenario's compute and the acceptance pin that the modified
// Zipf–Mandelbrot family wins on PALU-generated traffic.
func modelSelectionPALU(seed uint64, n int, m *model.Metrics) (ModelSelectionResult, error) {
	if n <= 0 {
		n = baselineN
	}
	params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		return ModelSelectionResult{}, err
	}
	h, err := palu.FastObservedHistogram(params, n, 0.7, xrand.New(seed))
	if err != nil {
		return ModelSelectionResult{}, err
	}
	return selectModels("palu-observed", "", h, model.Default().Instrument(m), approximatingFitters())
}

// writeModelSelectionCSV renders the selection table as the scenario's
// CSV artifact: one row per candidate in rank order, failures last.
func writeModelSelectionCSV(w io.Writer, r ModelSelectionResult) error {
	if _, err := fmt.Fprintln(w,
		"rank,fitter,family,k,n,loglik,aic,bic,daic,akaike_weight,vuong_z,vuong_p,params"); err != nil {
		return err
	}
	bestAIC := 0.0
	if best, ok := r.Selection.Best(); ok {
		bestAIC = best.AIC
	}
	for rank, i := range r.Selection.Order {
		res := r.Selection.Results[i]
		if !res.Comparable() {
			if _, err := fmt.Fprintf(w, "%d,%s,%s,%d,%d,excluded,,,,,,,%s\n",
				rank+1, res.Fitter, res.Model.Name(), res.K, res.N,
				csvParams(res)); err != nil {
				return err
			}
			continue
		}
		v := r.Selection.Vuong[i]
		vz, vp := "", ""
		if v.Ref != "" {
			vz, vp = fmt.Sprintf("%g", v.Z), fmt.Sprintf("%g", v.P)
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%d,%d,%g,%g,%g,%g,%g,%s,%s,%s\n",
			rank+1, res.Fitter, res.Model.Name(), res.K, res.N,
			res.LogLik, res.AIC, res.BIC, res.AIC-bestAIC,
			r.Selection.Weights[i], vz, vp, csvParams(res)); err != nil {
			return err
		}
	}
	for _, f := range r.Failed {
		if _, err := fmt.Fprintf(w, ",%s,,,,fit failed: %s,,,,,,,\n",
			f.Fitter, strings.ReplaceAll(f.Err, ",", ";")); err != nil {
			return err
		}
	}
	return nil
}

// csvParams renders fitted parameters as a comma-safe cell.
func csvParams(res model.FitResult) string {
	return strings.ReplaceAll(res.ParamString(), " ", ";")
}

// diagString renders a diagnostics map deterministically (sorted keys).
func diagString(diag map[string]float64) string {
	keys := make([]string, 0, len(diag))
	for k := range diag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, diag[k])
	}
	return strings.Join(parts, " ")
}
