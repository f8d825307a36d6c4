// Command palu-fit fits the registered model families to a degree
// histogram given as CSV (degree,count; header optional) and ranks them
// by likelihood (AIC/BIC + Vuong LLR). It is a thin driver over the
// model registry: every family — the modified Zipf–Mandelbrot
// (Section II.B), its maximum-likelihood fit, the
// Clauset–Shalizi–Newman and pure power-law baselines, the Section IV.B
// PALU constants, the discrete lognormal and the truncated power law —
// is one registry entry.
//
// Usage:
//
//	palu-gen -n 500000 | palu-fit
//	palu-fit -i hist.csv -models zm,zm-mle,plaw -bootstrap 200 -json
//	palu-fit -i hist.csv -plot
//
// Exit status is nonzero when the input is unreadable or any requested
// fit fails (the table still prints for the families that did fit).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"hybridplaw"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/model"
	"hybridplaw/internal/plotio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable driver body; it returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("palu-fit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("i", "", "input CSV path (default stdin)")
		models    = fs.String("models", "", "comma-separated fitters to run (default: all registered)")
		asJSON    = fs.Bool("json", false, "emit machine-readable JSON instead of the text table")
		bootstrap = fs.Int("bootstrap", 0, "bootstrap replicates for confidence intervals (0 disables)")
		level     = fs.Float64("level", 0.9, "bootstrap interval coverage level")
		seed      = fs.Uint64("seed", 1, "bootstrap RNG seed")
		plot      = fs.Bool("plot", false, "render an ASCII log-log plot of data and the winning fit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var r io.Reader = stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(stderr, "palu-fit: %v\n", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	h, err := readHistogram(r)
	if err != nil {
		fmt.Fprintf(stderr, "palu-fit: reading histogram: %v\n", err)
		return 1
	}

	reg := model.Default()
	var names []string
	if *models != "" {
		for _, tok := range strings.Split(*models, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				names = append(names, tok)
			}
		}
	}
	results, errs, err := reg.FitAll(h, names...)
	if err != nil {
		fmt.Fprintf(stderr, "palu-fit: %v\n", err)
		return 1
	}
	if len(names) == 0 {
		names = reg.Names()
	}
	var fitted []model.FitResult
	var failures []fitFailure
	for i, res := range results {
		if errs[i] != nil {
			failures = append(failures, fitFailure{Fitter: names[i], Err: errs[i].Error()})
			continue
		}
		fitted = append(fitted, res)
	}
	var sel model.Selection
	if len(fitted) > 0 {
		sel, err = model.Select(h, fitted)
		if err != nil {
			fmt.Fprintf(stderr, "palu-fit: selection: %v\n", err)
			return 1
		}
	}

	ci, ciErrs := runBootstrap(h, names, *bootstrap, *level, *seed)
	failures = append(failures, ciErrs...)

	if *asJSON {
		if err := writeJSON(stdout, h, sel, failures, ci); err != nil {
			fmt.Fprintf(stderr, "palu-fit: %v\n", err)
			return 1
		}
	} else {
		writeText(stdout, h, sel, ci)
	}
	if *plot && !*asJSON {
		if err := writePlot(stdout, h, sel); err != nil {
			fmt.Fprintf(stderr, "palu-fit: plot: %v\n", err)
			return 1
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(stderr, "palu-fit: %s: %s\n", f.Fitter, f.Err)
		}
		return 1
	}
	return 0
}

// fitFailure is one requested fit (or interval) that failed.
type fitFailure struct {
	Fitter string `json:"fitter"`
	Err    string `json:"error"`
}

// zmIntervals holds the (alpha, delta) intervals of the least-squares
// ZM fit with the replicate count that produced them.
type zmIntervals struct {
	Reps  int        `json:"reps"`
	Alpha [2]float64 `json:"alpha"`
	Delta [2]float64 `json:"delta"`
}

// paluIntervals holds the Section IV.B constant intervals.
type paluIntervals struct {
	Reps  int        `json:"reps"`
	Alpha [2]float64 `json:"alpha"`
	C     [2]float64 `json:"c"`
	L     [2]float64 `json:"l"`
	U     [2]float64 `json:"u"`
	Mu    [2]float64 `json:"mu"`
}

// intervals collects the optional bootstrap output. Each family carries
// its own replicate count: failed replicates are skipped per family, so
// the counts can differ.
type intervals struct {
	Level float64        `json:"level"`
	ZM    *zmIntervals   `json:"zm,omitempty"`
	PALU  *paluIntervals `json:"palu,omitempty"`
}

// runBootstrap computes the requested confidence intervals: ZM (α, δ)
// when a zm-family fitter ran, PALU constants when the palu fitter ran.
func runBootstrap(h *hybridplaw.Histogram, names []string, reps int, level float64, seed uint64) (*intervals, []fitFailure) {
	if reps <= 0 {
		return nil, nil
	}
	want := func(prefix string) bool {
		for _, n := range names {
			if n == prefix || strings.HasPrefix(n, prefix+"-") {
				return true
			}
		}
		return false
	}
	out := &intervals{Level: level}
	var failures []fitFailure
	if want("zm") {
		ci, err := hybridplaw.BootstrapZipfMandelbrot(h, reps, level, hybridplaw.NewRNG(seed))
		if err != nil {
			failures = append(failures, fitFailure{Fitter: "zm bootstrap", Err: err.Error()})
		} else {
			out.ZM = &zmIntervals{
				Reps:  ci.Reps,
				Alpha: [2]float64{ci.Alpha.Lo, ci.Alpha.Hi},
				Delta: [2]float64{ci.Delta.Lo, ci.Delta.Hi},
			}
		}
	}
	if want("palu") {
		ci, err := hybridplaw.BootstrapPALU(h, reps, level, hybridplaw.NewRNG(seed))
		if err != nil {
			failures = append(failures, fitFailure{Fitter: "palu bootstrap", Err: err.Error()})
		} else {
			out.PALU = &paluIntervals{
				Reps:  ci.Reps,
				Alpha: [2]float64{ci.Alpha.Lo, ci.Alpha.Hi},
				C:     [2]float64{ci.C.Lo, ci.C.Hi},
				L:     [2]float64{ci.L.Lo, ci.L.Hi},
				U:     [2]float64{ci.U.Lo, ci.U.Hi},
				Mu:    [2]float64{ci.Mu.Lo, ci.Mu.Hi},
			}
		}
	}
	if out.ZM == nil && out.PALU == nil {
		return nil, failures
	}
	return out, failures
}

// writeText renders the human-readable report.
func writeText(w io.Writer, h *hybridplaw.Histogram, sel model.Selection, ci *intervals) {
	fmt.Fprintf(w, "observations: %d distinct degrees, %d nodes, dmax=%d, D(1)=%.4f\n",
		len(h.Support()), h.Total(), h.MaxDegree(), h.FractionDegreeOne())
	if len(sel.Results) == 0 {
		return
	}
	fmt.Fprint(w, sel.Table())
	if best, ok := sel.Best(); ok {
		fmt.Fprintf(w, "selected: %s (family %s, AIC weight %.3f)\n",
			best.Fitter, best.Model.Name(), sel.Weights[sel.BestIdx])
	}
	if ci != nil {
		fmt.Fprintf(w, "bootstrap (%.0f%% intervals):\n", 100*ci.Level)
		if ci.ZM != nil {
			fmt.Fprintf(w, "  zm (%d reps):   alpha in [%.3f, %.3f], delta in [%.3f, %.3f]\n",
				ci.ZM.Reps, ci.ZM.Alpha[0], ci.ZM.Alpha[1], ci.ZM.Delta[0], ci.ZM.Delta[1])
		}
		if ci.PALU != nil {
			fmt.Fprintf(w, "  palu (%d reps): alpha in [%.3f, %.3f], c in [%.4g, %.4g], l in [%.4g, %.4g], u in [%.4g, %.4g], mu in [%.4g, %.4g]\n",
				ci.PALU.Reps, ci.PALU.Alpha[0], ci.PALU.Alpha[1], ci.PALU.C[0], ci.PALU.C[1],
				ci.PALU.L[0], ci.PALU.L[1], ci.PALU.U[0], ci.PALU.U[1],
				ci.PALU.Mu[0], ci.PALU.Mu[1])
		}
	}
}

// jsonModel is one candidate in the machine-readable output. Non-finite
// statistics marshal as null.
type jsonModel struct {
	Fitter string             `json:"fitter"`
	Family string             `json:"family"`
	Params map[string]float64 `json:"params"`
	K      int                `json:"k"`
	N      int64              `json:"n"`
	LogLik *float64           `json:"loglik"`
	AIC    *float64           `json:"aic"`
	BIC    *float64           `json:"bic"`
	Weight *float64           `json:"akaike_weight"`
	VuongZ *float64           `json:"vuong_z,omitempty"`
	VuongP *float64           `json:"vuong_p,omitempty"`
	Diag   map[string]float64 `json:"diagnostics,omitempty"`
}

func finite(f float64) *float64 {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil
	}
	return &f
}

// writeJSON renders the machine-readable report.
func writeJSON(w io.Writer, h *hybridplaw.Histogram, sel model.Selection, failures []fitFailure, ci *intervals) error {
	type observation struct {
		Distinct int     `json:"distinct_degrees"`
		Total    int64   `json:"observations"`
		DMax     int     `json:"dmax"`
		FracD1   float64 `json:"frac_d1"`
	}
	out := struct {
		Observation observation  `json:"observation"`
		Winner      string       `json:"winner,omitempty"`
		Models      []jsonModel  `json:"models"`
		Failures    []fitFailure `json:"failures,omitempty"`
		Bootstrap   *intervals   `json:"bootstrap,omitempty"`
	}{
		Observation: observation{
			Distinct: len(h.Support()), Total: h.Total(),
			DMax: h.MaxDegree(), FracD1: h.FractionDegreeOne(),
		},
		Failures:  failures,
		Bootstrap: ci,
	}
	if best, ok := sel.Best(); ok {
		out.Winner = best.Fitter
	}
	for _, i := range sel.Order {
		r := sel.Results[i]
		params := make(map[string]float64, len(r.Model.Params()))
		for _, p := range r.Model.Params() {
			params[p.Name] = p.Value
		}
		diag := make(map[string]float64, len(r.Diag))
		for k, v := range r.Diag {
			if !math.IsInf(v, 0) && !math.IsNaN(v) {
				diag[k] = v
			}
		}
		jm := jsonModel{
			Fitter: r.Fitter, Family: r.Model.Name(), Params: params,
			K: r.K, N: r.N,
			LogLik: finite(r.LogLik), AIC: finite(r.AIC), BIC: finite(r.BIC),
			Weight: finite(sel.Weights[i]), Diag: diag,
		}
		if v := sel.Vuong[i]; v.Ref != "" {
			jm.VuongZ, jm.VuongP = finite(v.Z), finite(v.P)
		}
		out.Models = append(out.Models, jm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writePlot renders the pooled observed distribution against the
// winning model's pooled curve.
func writePlot(w io.Writer, h *hybridplaw.Histogram, sel model.Selection) error {
	best, ok := sel.Best()
	if !ok {
		return fmt.Errorf("no successful fit to plot")
	}
	pooled, err := h.Pool()
	if err != nil {
		return err
	}
	pmf, err := best.Model.PMF(h.MaxDegree())
	if err != nil {
		return err
	}
	md := make([]float64, len(pooled.D))
	for d := 1; d <= len(pmf); d++ {
		if bin := hist.BinIndex(d); bin < len(md) {
			md[bin] += pmf[d-1]
		}
	}
	chart, err := plotio.LogLogPlot([]plotio.Series{
		plotio.PooledSeries("observed D(di)", pooled.D, 'o'),
		plotio.PooledSeries(best.Fitter+" fit", md, '+'),
	}, 72, 20)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, chart)
	return nil
}

// readHistogram parses "degree,count" lines, tolerating blank lines,
// surrounding whitespace and a header: the first non-blank line is one
// only when its first field does not parse as an integer. Any other bad
// line, the first included, is an error naming its line.
func readHistogram(r io.Reader) (*hybridplaw.Histogram, error) {
	h := hybridplaw.NewHistogram()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line, first := 0, true
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("line %d: want 2 fields, got %d", line, len(parts))
		}
		d, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
		header := err1 != nil && first
		first = false
		if header {
			continue
		}
		c, err2 := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("line %d: unparseable %q", line, text)
		}
		if err := h.AddN(d, c); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if h.Total() == 0 {
		return nil, fmt.Errorf("no observations parsed")
	}
	return h, nil
}
