package experiments

// The declarative scenario registry: every table, figure and ablation of
// the paper as a scenario.Scenario with its declared traffic windows and
// artifact outputs. cmd/palu-figures drives this registry through the
// scenario engine; EXPERIMENTS.md is its rendered index.

import (
	"fmt"
	"io"
	"math"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/plotio"
	"hybridplaw/internal/scenario"
	"hybridplaw/internal/zipfmand"
)

// Suite sizes: the historical palu-figures defaults, kept in one place so
// scenarios and wrappers agree.
const (
	tableINV    = 100000
	figure1NV   = 100000
	validationN = 400000
	recoveryN   = 1000000
	invarianceN = 1000000
	baselineN   = 300000
	directedN   = 1000000
	weightedN   = 600000
	figure4DMax = 1 << 20
)

// Scenarios returns the full paper suite in canonical order. seed drives
// every suite-seeded experiment; the Fig. 3 panels carry their own
// published site seeds and ignore it.
func Scenarios(seed uint64) []scenario.Scenario {
	var scens []scenario.Scenario
	add := func(s scenario.Scenario) { scens = append(scens, s) }

	// table1 and fig1 consume the same synthetic window: under a window
	// cache the engine records it once and replays it for the other.
	tableWin := scenario.WindowReq{Site: tableISite(seed), NV: tableINV, Windows: 1}

	add(scenario.Scenario{
		Name:        "table1",
		Title:       "Table I: aggregate network properties (NV window)",
		Description: "Aggregate identities of one traffic window, computed three ways (incremental, matrix, parallel shard-merge).",
		Windows:     []scenario.WindowReq{tableWin},
		Run: func(ctx *scenario.Context) (scenario.Result, error) {
			res, err := runTableI(ctx, seed, tableINV)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	})

	add(scenario.Scenario{
		Name:        "fig1",
		Title:       fmt.Sprintf("Figure 1: streaming network quantities (NV=%d)", figure1NV),
		Description: "All five Fig. 1 network quantities of one window in a single streaming pass.",
		Outputs:     []string{"figure1_quantities.csv"},
		Windows:     []scenario.WindowReq{tableWin},
		Run: func(ctx *scenario.Context) (scenario.Result, error) {
			res, err := runFigure1(ctx, seed, figure1NV)
			if err != nil {
				return nil, err
			}
			err = ctx.WriteArtifact("figure1_quantities.csv", func(w io.Writer) error {
				if _, err := fmt.Fprintln(w, "quantity,total,dmax,frac_d1"); err != nil {
					return err
				}
				for i, q := range res.Quantity {
					if _, err := fmt.Fprintf(w, "%s,%d,%d,%g\n",
						q, res.Total[i], res.MaxDegree[i], res.FracD1[i]); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	})

	add(scenario.Scenario{
		Name:        "fig2",
		Title:       "Figure 2: traffic network topologies (observed PALU network)",
		Description: "Topology decomposition of an observed PALU network against the Section IV analytic fractions.",
		Run: func(ctx *scenario.Context) (scenario.Result, error) {
			res, err := RunFigure2(seed)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	})

	for _, spec := range netgen.Figure3Panels() {
		spec := spec
		csvName := "figure3_" + spec.ID + ".csv"
		txtName := "figure3_" + spec.ID + ".txt"
		add(scenario.Scenario{
			Name:        "fig3/" + spec.ID,
			Title:       "Figure 3 panel: " + spec.ID,
			Description: fmt.Sprintf("Measured %v distribution at %s with its modified Zipf–Mandelbrot fit.", spec.Quantity, spec.Site.Name),
			Outputs:     []string{csvName, txtName},
			Windows:     []scenario.WindowReq{{Site: spec.Site, NV: spec.NV, Windows: spec.Windows}},
			Run: func(ctx *scenario.Context) (scenario.Result, error) {
				res, err := runFigure3Panel(ctx, spec)
				if err != nil {
					return nil, err
				}
				model := zipfmand.Model{Alpha: res.FitAlpha, Delta: res.FitDelta}
				md, err := model.PooledD(res.DMax)
				if err != nil {
					return nil, err
				}
				err = ctx.WriteArtifact(csvName, func(w io.Writer) error {
					rows := make([][]float64, len(res.MeanD))
					for i := range res.MeanD {
						mv := math.NaN()
						if i < len(md) {
							mv = md[i]
						}
						rows[i] = []float64{float64(hist.BinUpper(i)), res.MeanD[i], res.SigmaD[i], mv}
					}
					return plotio.WriteCSV(w, []string{"di", "mean_D", "sigma_D", "zm_fit"}, rows)
				})
				if err != nil {
					return nil, err
				}
				chart, err := plotio.LogLogPlot([]plotio.Series{
					plotio.PooledSeries("observed", res.MeanD, 'o'),
					plotio.PooledSeries("ZM fit", md, '+'),
				}, 72, 18)
				if err != nil {
					return nil, err
				}
				err = ctx.WriteArtifact(txtName, func(w io.Writer) error {
					_, werr := io.WriteString(w, chart)
					return werr
				})
				if err != nil {
					return nil, err
				}
				return res, nil
			},
		})
	}

	for _, panel := range Figure4Spec() {
		panel := panel
		base := fmt.Sprintf("figure4_alpha%.1f", panel.Alpha)
		add(scenario.Scenario{
			Name:        fmt.Sprintf("fig4/alpha%.1f", panel.Alpha),
			Title:       fmt.Sprintf("Figure 4: PALU curve family vs Zipf-Mandelbrot (alpha=%.1f)", panel.Alpha),
			Description: fmt.Sprintf("PALU curve family at alpha=%.1f, delta=%.2f against the ZM reference over the paper's 10^6 degree range.", panel.Alpha, panel.Delta),
			Outputs:     []string{base + ".csv", base + ".txt"},
			Run: func(ctx *scenario.Context) (scenario.Result, error) {
				res, err := RunFigure4Panel(panel, figure4DMax)
				if err != nil {
					return nil, err
				}
				err = ctx.WriteArtifact(base+".csv", func(w io.Writer) error {
					header := []string{"di", "zm"}
					for _, rr := range res.Panel.Rs {
						header = append(header, fmt.Sprintf("palu_r%g", rr))
					}
					rows := make([][]float64, len(res.ZM))
					for i := range res.ZM {
						row := []float64{float64(hist.BinUpper(i)), res.ZM[i]}
						for _, curve := range res.PALU {
							v := math.NaN()
							if i < len(curve) {
								v = curve[i]
							}
							row = append(row, v)
						}
						rows[i] = row
					}
					return plotio.WriteCSV(w, header, rows)
				})
				if err != nil {
					return nil, err
				}
				series := []plotio.Series{plotio.PooledSeries("ZM", res.ZM, 'z')}
				series = append(series, plotio.PooledSeries(
					fmt.Sprintf("PALU r=%g", res.Panel.Rs[0]), res.PALU[0], '.'))
				series = append(series, plotio.PooledSeries(
					fmt.Sprintf("PALU r=%g", res.Panel.Rs[len(res.Panel.Rs)-1]),
					res.PALU[len(res.PALU)-1], '+'))
				chart, err := plotio.LogLogPlot(series, 72, 18)
				if err != nil {
					return nil, err
				}
				err = ctx.WriteArtifact(base+".txt", func(w io.Writer) error {
					_, werr := io.WriteString(w, chart)
					return werr
				})
				if err != nil {
					return nil, err
				}
				return res, nil
			},
		})
	}

	for _, spec := range netgen.Figure3Panels() {
		spec := spec
		csvName := "modelsel_" + spec.ID + ".csv"
		add(scenario.Scenario{
			Name:  "modelsel/" + spec.ID,
			Title: "Model selection: " + spec.ID,
			Description: fmt.Sprintf(
				"Likelihood-based selection (AIC/BIC + Vuong LLR) across every registered model family on the %s merged histogram.", spec.ID),
			Outputs: []string{csvName},
			Windows: []scenario.WindowReq{{Site: spec.Site, NV: spec.NV, Windows: spec.Windows}},
			Run: func(ctx *scenario.Context) (scenario.Result, error) {
				res, err := runModelSelectionPanel(ctx, spec)
				if err != nil {
					return nil, err
				}
				err = ctx.WriteArtifact(csvName, func(w io.Writer) error {
					return writeModelSelectionCSV(w, res)
				})
				if err != nil {
					return nil, err
				}
				return res, nil
			},
		})
	}

	add(scenario.Scenario{
		Name:  "modelsel/palu-observed",
		Title: "Model selection: PALU-generated reference traffic",
		Description: "Approximating families (ZM, power laws, lognormal, truncated) ranked by likelihood on PALU-generated traffic; " +
			"the modified Zipf-Mandelbrot family must win.",
		Outputs: []string{"modelsel_palu_observed.csv"},
		Run: func(ctx *scenario.Context) (scenario.Result, error) {
			res, err := modelSelectionPALU(seed, baselineN, ctx.FitMetrics())
			if err != nil {
				return nil, err
			}
			err = ctx.WriteArtifact("modelsel_palu_observed.csv", func(w io.Writer) error {
				return writeModelSelectionCSV(w, res)
			})
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	})

	fedSites := FederationSites()
	for _, fs := range fedSites {
		fs := fs
		csvName := "federation_" + fs.ID + ".csv"
		add(scenario.Scenario{
			Name:  "federation/" + fs.ID,
			Title: "Federation member: " + fs.Site.Name,
			Description: fmt.Sprintf(
				"Per-site half of the federation contrast: %s's merged source-packets distribution and its model selection.", fs.Site.Name),
			Outputs: []string{csvName},
			Windows: []scenario.WindowReq{federationReq(fs)},
			Run: func(ctx *scenario.Context) (scenario.Result, error) {
				res, err := federationSite(ctx, fs)
				if err != nil {
					return nil, err
				}
				err = ctx.WriteArtifact(csvName, func(w io.Writer) error {
					return writeModelSelectionCSV(w, res.Selection)
				})
				if err != nil {
					return nil, err
				}
				return res, nil
			},
		})
	}

	fedWindows := make([]scenario.WindowReq, len(fedSites))
	for i, fs := range fedSites {
		fedWindows[i] = federationReq(fs)
	}
	add(scenario.Scenario{
		Name:  "federation/backbone",
		Title: "Federation backbone: merged cross-site windows",
		Description: "Rebases each member site's window partials into a disjoint id space, merges them per window into a synthetic " +
			"backbone, and contrasts model selection on the merged vs per-site source-packets distributions.",
		Outputs: []string{"federation_backbone.csv", "federation_backbone_windows.csv", "federation_compare.csv"},
		Windows: fedWindows,
		Run: func(ctx *scenario.Context) (scenario.Result, error) {
			res, err := runFederationBackbone(ctx, fedSites)
			if err != nil {
				return nil, err
			}
			err = ctx.WriteArtifact("federation_backbone.csv", func(w io.Writer) error {
				return writeModelSelectionCSV(w, res.Backbone)
			})
			if err != nil {
				return nil, err
			}
			err = ctx.WriteArtifact("federation_backbone_windows.csv", func(w io.Writer) error {
				return writeFederationWindowsCSV(w, res)
			})
			if err != nil {
				return nil, err
			}
			err = ctx.WriteArtifact("federation_compare.csv", func(w io.Writer) error {
				return writeFederationCompareCSV(w, res)
			})
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	})

	add(scenario.Scenario{
		Name:        "validation",
		Title:       "E-V1: Section IV analytic predictions vs simulation",
		Description: "Degree fractions and visible totals of a fast-sampled observation against the exact Section IV predictions.",
		Outputs:     []string{"validation.csv"},
		Run: func(ctx *scenario.Context) (scenario.Result, error) {
			rows, err := RunValidation(seed, validationN)
			if err != nil {
				return nil, err
			}
			err = ctx.WriteArtifact("validation.csv", func(w io.Writer) error {
				if _, err := fmt.Fprintln(w, "name,analytic,simulated,relerr"); err != nil {
					return err
				}
				for _, r := range rows {
					if _, err := fmt.Fprintf(w, "%s,%g,%g,%g\n",
						r.Name, r.Analytic, r.Simulated, r.RelErr); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			return ValidationResult{Rows: rows}, nil
		},
	})

	add(scenario.Scenario{
		Name:        "recovery",
		Title:       "E-R1: Section IV.B estimator recovery",
		Description: "Recovers the reduced constants from a sampled observation and reports errors against the exact values.",
		Run: func(ctx *scenario.Context) (scenario.Result, error) {
			res, err := RunRecovery(seed, recoveryN)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	})

	add(scenario.Scenario{
		Name:        "invariance",
		Title:       "E-X1: window invariance (Section III claim)",
		Description: "One underlying model observed at several p values: per-window estimates and the joint lift to underlying parameters.",
		Run: func(ctx *scenario.Context) (scenario.Result, error) {
			res, err := RunWindowInvariance(seed, invarianceN)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	})

	add(scenario.Scenario{
		Name:        "baseline",
		Title:       "E-X2: single power law vs modified Zipf-Mandelbrot",
		Description: "Clauset–Shalizi–Newman single power law against the modified ZM on leaf-heavy synthetic data.",
		Run: func(ctx *scenario.Context) (scenario.Result, error) {
			res, err := baselineComparison(seed, baselineN, ctx.FitMetrics())
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	})

	add(scenario.Scenario{
		Name:        "directed",
		Title:       "E-X3: directed ablation (Section III directionality claim)",
		Description: "In/out/total tail exponents of a directed observation and the q^(alpha-1) out-amplitude prediction.",
		Run: func(ctx *scenario.Context) (scenario.Result, error) {
			res, err := RunDirectedAblation(seed, directedN)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	})

	add(scenario.Scenario{
		Name:        "weighted",
		Title:       "E-X4: weighted-edge extension (Section VII)",
		Description: "Packet-degree tail of a weighted observation against the heavier-law prediction.",
		Run: func(ctx *scenario.Context) (scenario.Result, error) {
			res, err := RunWeightedExtension(seed, weightedN)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	})

	return scens
}

// Register adds the full paper suite to reg.
func Register(reg *scenario.Registry, seed uint64) error {
	for _, s := range Scenarios(seed) {
		if err := reg.Register(s); err != nil {
			return err
		}
	}
	return nil
}

// MustRegistry returns a fresh registry holding the full paper suite,
// panicking on a (statically impossible) registration error.
func MustRegistry(seed uint64) *scenario.Registry {
	reg := scenario.NewRegistry()
	if err := Register(reg, seed); err != nil {
		panic(err)
	}
	return reg
}
