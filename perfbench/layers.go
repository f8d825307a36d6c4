package main

// The traced run's second half: the selection's layer calls re-issued on
// the same inputs through each layer's public functions. The streaming
// layers get one span per distinct window (generate, record, decode,
// reduce, replay); every other layer gets one stage span around the loop
// over its inputs, so a layer the selection never calls still reports
// its empty stage.
//
// The seed-driven recipes below repeat internal/experiments' constants
// (parameter sets, sample sizes, p values, seeding). A change there must
// be repeated here for the per-layer figures to stay faithful; the
// end-to-end metrics never depend on this file.

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"hybridplaw/internal/estimate"
	"hybridplaw/internal/experiments"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/model"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/plotio"
	"hybridplaw/internal/powerlaw"
	"hybridplaw/internal/scenario"
	"hybridplaw/internal/spmat"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/tracestore"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

// Seed-driven experiment inputs, as in internal/experiments.
var (
	defaultWeights  = [5]float64{2, 2, 1.5, 2.5, 2.0}
	baselineWeights = [5]float64{1, 3, 2, 1.5, 2.2}
	weightedWeights = [5]float64{3, 1, 0.5, 1.5, 2.6}
	weightModel     = palu.WeightModel{Alpha: 1.9, Delta: 0, MaxWeight: 1 << 14}
	invariancePs    = []float64{0.3, 0.45, 0.6, 0.75, 0.9}
	// approximating is the candidate list of every selection except the
	// Fig. 3 panels', which use every registered family.
	approximating = []string{"zm", "zm-mle", "csn", "plaw", "lognormal", "truncplaw"}
)

const (
	figure2N    = 200000
	validationN = 400000
	recoveryN   = 1000000
	invarianceN = 1000000
	baselineN   = 300000
	directedN   = 1000000
	weightedN   = 600000
	figure4DMax = 1 << 20
	// federationStride separates the member sites' id spaces in the
	// backbone merge.
	federationStride = 1 << 24
)

// counts are the traced run's per-layer work counters.
type counts struct {
	NetgenPackets int64 `json:"netgen_packets"`
	ArchiveBytes  int64 `json:"archive_bytes"`
	RawBytes      int64 `json:"raw_bytes"`
	ReadBytes     int64 `json:"read_bytes"`
	Windows       int64 `json:"windows"`
	Packets       int64 `json:"packets"`
	Fits          int64 `json:"fits"`
	FitFailures   int64 `json:"fit_failures"`
	WriteBytes    int64 `json:"write_bytes"`
	WriteFiles    int64 `json:"write_files"`
}

// fitJob is one model-selection table: a histogram, its candidate
// fitters, and the fits that succeeded.
type fitJob struct {
	h       *hist.Histogram
	fitters []string
	ok      []model.FitResult
}

// panel carries one Fig. 3 panel from its replay to its chart.
type panel struct {
	spec        netgen.PanelSpec
	ens         *stream.EnsembleSink
	mean, sigma []float64
	dmax        int
	fit         zipfmand.FitResult
	md          []float64
}

// curves carries one Fig. 4 panel from its ZM reference to its chart.
type curves struct {
	spec experiments.Figure4Panel
	zm   []float64
	palu [][]float64
}

type reissuer struct {
	tr     *tracer
	parent int
	o      options
	c      counts
	names  map[string]bool
	panels map[string]netgen.PanelSpec

	table1     *stream.ResultCollector
	fig3       []*panel
	fig4       []*curves
	backbone   []*stream.PartialSink
	jobs       []*fitJob
	baseline   *hist.Histogram
	zmBaseline zipfmand.FitResult
	estimates  []*hist.Histogram
	invariance []*hist.Histogram
}

// reissue re-issues the layer calls of scens under spans and returns the
// work counters.
func reissue(tr *tracer, o options, scens []scenario.Scenario) (counts, error) {
	r := &reissuer{tr: tr, o: o, names: make(map[string]bool), panels: make(map[string]netgen.PanelSpec)}
	for _, s := range scens {
		r.names[s.Name] = true
	}
	for _, spec := range netgen.Figure3Panels() {
		r.panels[spec.ID] = spec
	}
	r.parent = tr.start("reissue", "", -1)
	defer tr.end(r.parent)
	if err := r.streams(scens); err != nil {
		return r.c, err
	}
	type step struct {
		layer string
		fn    func() error
	}
	steps := []step{
		{"spmat.matrix", r.matrix},
		{"spmat.merge", r.merge},
		{"palu.sample", r.sample},
		{"zipfmand.fit", r.zmFit},
	}
	for _, fam := range model.Default().Names() {
		steps = append(steps, step{"model.fit." + fam, func() error { return r.fit(fam) }})
	}
	steps = append(steps,
		step{"model.select", r.selectModels},
		step{"powerlaw.compare", r.compare},
		step{"estimate.estimate", r.estimate},
		step{"zipfmand.pooled", r.pooled},
		step{"palu.curve", r.curve},
		step{"plotio.write", r.write(scens)},
	)
	for _, s := range steps {
		if err := r.span(s.layer, s.fn); err != nil {
			return r.c, err
		}
	}
	return r.c, nil
}

// span runs fn under one span charged to layer.
func (r *reissuer) span(layer string, fn func() error) error {
	return r.tr.stage(layer, r.parent, fn)
}

// streams re-issues every distinct window of the selection: generate its
// packets, record them to a scratch archive, drain that archive (decode
// without reduce), reduce the packets with the consumers' sinks, and
// replay the window out of the warm cache through the fused path with
// the consumers' sinks, as the shared replay of a pass does. The replay's
// sinks feed the later stages.
func (r *reissuer) streams(scens []scenario.Scenario) error {
	cache, err := scenario.NewWindowCache(r.o.cache)
	if err != nil {
		return err
	}
	for _, req := range uniqueWindows(scens) {
		key := req.Key()
		var consumers []string
		for _, s := range scens {
			if slices.ContainsFunc(s.Windows, func(w scenario.WindowReq) bool { return w.Key() == key }) {
				consumers = append(consumers, s.Name)
			}
		}
		var pkts []stream.Packet
		err := r.span("netgen.generate", func() error {
			site, err := netgen.NewSite(req.Site)
			if err != nil {
				return err
			}
			src := stream.TakeValid(site.PacketSource(), req.ValidPackets())
			pkts = make([]stream.Packet, 0, req.ValidPackets()+req.ValidPackets()/16)
			for p, ok := src.Next(); ok; p, ok = src.Next() {
				pkts = append(pkts, p)
			}
			return src.Err()
		})
		if err != nil {
			return err
		}
		r.c.NetgenPackets += int64(len(pkts))
		if err := r.recordAndDecode(pkts); err != nil {
			return err
		}
		cfg, sinks, err := r.consumers(req, consumers, false)
		if err != nil {
			return err
		}
		cfg.Workers = 1
		err = r.span("stream.reduce", func() error {
			_, err := stream.Run(stream.NewSliceSource(pkts), cfg, sinks...)
			return err
		})
		if err != nil {
			return err
		}
		pkts = nil
		cfg, sinks, err = r.consumers(req, consumers, true)
		if err != nil {
			return err
		}
		// The engine's inner budget for a serial suite: the whole machine.
		cfg.Workers = runtime.GOMAXPROCS(0)
		var stats stream.PipelineStats
		err = r.span("stream.replay", func() error {
			stats, err = cache.Stream(req, cfg, sinks...)
			return err
		})
		if err != nil {
			return err
		}
		r.c.Windows += int64(stats.Windows)
		r.c.Packets += stats.ValidPackets + stats.InvalidPackets
	}
	return nil
}

// recordAndDecode records pkts into a scratch archive with the cache's
// writer settings, then drains the archive through the sequential reader.
func (r *reissuer) recordAndDecode(pkts []stream.Packet) error {
	f, err := os.CreateTemp(r.o.scratch, "window-*.ptrc")
	if err != nil {
		return err
	}
	path := f.Name()
	defer os.Remove(path)
	err = r.span("tracestore.record", func() error {
		_, err := tracestore.Record(f, stream.NewSliceSource(pkts), tracestore.WriterOptions{})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	info, err := tracestore.InfoFile(path)
	if err != nil {
		return err
	}
	r.c.ArchiveBytes += info.FileSize
	r.c.RawBytes += info.RawBytes
	r.c.ReadBytes += info.FileSize
	return r.span("tracestore.decode", func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rd, err := tracestore.NewReader(f)
		if err != nil {
			return err
		}
		for _, ok := rd.NextBlock(); ok; _, ok = rd.NextBlock() {
		}
		return rd.Err()
	})
}

// consumers returns the union pipeline configuration and the sinks of
// every scenario streaming req, as the scenarios attach them. keep routes
// the sinks' results to the later stages.
func (r *reissuer) consumers(req scenario.WindowReq, names []string, keep bool) (stream.PipelineConfig, []stream.Sink, error) {
	var cfgs []stream.PipelineConfig
	var sinks []stream.Sink
	for _, name := range names {
		cfg := stream.PipelineConfig{NV: req.NV, MaxWindows: req.Windows}
		id := name[strings.IndexByte(name, '/')+1:]
		switch {
		case name == "table1":
			c := &stream.ResultCollector{}
			if keep {
				r.table1 = c
			}
			cfg.KeepMatrices = true
			sinks = append(sinks, c)
		case name == "fig1":
			sinks = append(sinks, &stream.ResultCollector{})
		case strings.HasPrefix(name, "fig3/"):
			spec := r.panels[id]
			ens := stream.NewEnsembleSink(spec.Quantity)
			if keep {
				r.fig3 = append(r.fig3, &panel{spec: spec, ens: ens})
			}
			sinks = append(sinks, ens)
		case strings.HasPrefix(name, "modelsel/"):
			spec := r.panels[id]
			ens := stream.NewEnsembleSink(spec.Quantity)
			if keep {
				r.jobs = append(r.jobs, &fitJob{h: ens.Merged(spec.Quantity), fitters: model.Default().Names()})
			}
			sinks = append(sinks, ens)
		case name == "federation/backbone":
			ens := stream.NewEnsembleSink(stream.SourcePackets)
			parts := &stream.PartialSink{}
			if keep {
				r.backbone = append(r.backbone, parts)
				r.jobs = append(r.jobs, &fitJob{h: ens.Merged(stream.SourcePackets), fitters: approximating})
			}
			cfg.KeepPartials = true
			sinks = append(sinks, ens, parts)
		case strings.HasPrefix(name, "federation/"):
			ens := stream.NewEnsembleSink(stream.SourcePackets)
			if keep {
				r.jobs = append(r.jobs, &fitJob{h: ens.Merged(stream.SourcePackets), fitters: approximating})
			}
			sinks = append(sinks, ens)
		}
		cfgs = append(cfgs, cfg)
	}
	cfg, err := stream.UnionConfigs(cfgs...)
	return cfg, sinks, err
}

// matrix is table1's matrix work: Table I from the frozen matrix, its
// transpose, and the parallel shard-merge rebuild.
func (r *reissuer) matrix() error {
	if r.table1 == nil || len(r.table1.Results) == 0 {
		return nil
	}
	m := r.table1.Results[0].Matrix
	m.TableI()
	m.Transpose().TableI()
	spmat.ParallelBuild(m.Entries(), 0).TableI()
	return nil
}

// merge is the federation backbone: rebase each member's window partials
// into its own id space, merge them per window and reduce the merged
// windows.
func (r *reissuer) merge() error {
	if len(r.backbone) == 0 {
		return nil
	}
	rebased := make([][]spmat.WindowPartial, len(r.backbone))
	for i, parts := range r.backbone {
		for _, p := range parts.Partials {
			rp, err := p.Rebase(uint32(i) * federationStride)
			if err != nil {
				return err
			}
			rebased[i] = append(rebased[i], rp)
		}
	}
	ens := stream.NewEnsembleSink(stream.SourcePackets)
	for t := range rebased[0] {
		merged := rebased[0][t]
		for i := 1; i < len(rebased); i++ {
			if t >= len(rebased[i]) {
				return fmt.Errorf("federation member %d has %d windows, need %d", i, len(rebased[i]), t+1)
			}
			merged = merged.Merge(rebased[i][t])
		}
		win, err := stream.ReducePartial(t, merged, false)
		if err != nil {
			return err
		}
		if err := ens.ConsumeWindow(win); err != nil {
			return err
		}
	}
	r.jobs = append(r.jobs, &fitJob{h: ens.Merged(stream.SourcePackets), fitters: approximating})
	return nil
}

func params(w [5]float64) (palu.Params, error) {
	return palu.FromWeights(w[0], w[1], w[2], w[3], w[4])
}

// sample draws every seed-driven observation of the selection.
func (r *reissuer) sample() error {
	seed := r.o.seed
	dp, err := params(defaultWeights)
	if err != nil {
		return err
	}
	bp, err := params(baselineWeights)
	if err != nil {
		return err
	}
	if r.names["fig2"] {
		rng := xrand.New(seed)
		u, err := palu.Generate(dp, palu.GenerateOptions{N: figure2N}, rng)
		if err != nil {
			return err
		}
		g, err := u.Observe(0.45, rng)
		if err != nil {
			return err
		}
		g.DecomposeTopology()
		if _, err := u.CountObserved(g); err != nil {
			return err
		}
	}
	if r.names["validation"] {
		if _, err := palu.FastObservedHistogram(dp, validationN, 0.5, xrand.New(seed)); err != nil {
			return err
		}
	}
	if r.names["recovery"] {
		h, err := palu.FastObservedHistogram(dp, recoveryN, 0.5, xrand.New(seed))
		if err != nil {
			return err
		}
		r.estimates = append(r.estimates, h)
	}
	if r.names["invariance"] {
		rng := xrand.New(seed)
		for _, p := range invariancePs {
			h, err := palu.FastObservedHistogram(dp, invarianceN, p, rng.Split())
			if err != nil {
				return err
			}
			r.invariance = append(r.invariance, h)
		}
	}
	if r.names["baseline"] {
		if r.baseline, err = palu.FastObservedHistogram(bp, baselineN, 0.7, xrand.New(seed)); err != nil {
			return err
		}
	}
	if r.names["modelsel/palu-observed"] {
		h, err := palu.FastObservedHistogram(bp, baselineN, 0.7, xrand.New(seed))
		if err != nil {
			return err
		}
		r.jobs = append(r.jobs, &fitJob{h: h, fitters: approximating})
	}
	if r.names["directed"] {
		dh, err := palu.FastDirectedHistograms(dp, directedN, 0.5, 0.5, xrand.New(seed))
		if err != nil {
			return err
		}
		r.estimates = append(r.estimates, dh.Total, dh.In, dh.Out)
	}
	if r.names["weighted"] {
		wp, err := params(weightedWeights)
		if err != nil {
			return err
		}
		wh, err := palu.FastWeightedHistograms(wp, weightedN, 0.6, weightModel, xrand.New(seed))
		if err != nil {
			return err
		}
		r.estimates = append(r.estimates, wh.Degree, wh.PacketDegree)
	}
	return nil
}

// zmFit is the modified Zipf–Mandelbrot least-squares fits: each Fig. 3
// panel's cross-window mean, and the E-X2 baseline histogram.
func (r *reissuer) zmFit() error {
	for _, p := range r.fig3 {
		q := p.spec.Quantity
		ens, merged := p.ens.Ensemble(q), p.ens.Merged(q)
		p.mean, p.sigma, p.dmax = ens.Mean(), ens.Sigma(), merged.MaxDegree()
		fit, err := zipfmand.Fit(&hist.Pooled{D: p.mean, Total: merged.Total()}, p.dmax,
			zipfmand.FitOptions{LogSpace: true})
		if err != nil {
			return err
		}
		p.fit = fit
	}
	if r.baseline != nil {
		fit, _, err := zipfmand.FitHistogram(r.baseline, zipfmand.DefaultFitOptions())
		if err != nil {
			return err
		}
		r.zmBaseline = fit
	}
	return nil
}

// fit runs one family over every selection table that lists it.
func (r *reissuer) fit(fam string) error {
	reg := model.Default()
	for _, j := range r.jobs {
		if !slices.Contains(j.fitters, fam) {
			continue
		}
		res, errs, err := reg.FitAll(j.h, fam)
		if err != nil {
			return err
		}
		r.c.Fits++
		if errs[0] != nil {
			r.c.FitFailures++
			continue
		}
		j.ok = append(j.ok, res[0])
	}
	return nil
}

func (r *reissuer) selectModels() error {
	for _, j := range r.jobs {
		if len(j.ok) == 0 {
			continue
		}
		if _, err := model.Select(j.h, j.ok); err != nil {
			return err
		}
	}
	return nil
}

func (r *reissuer) compare() error {
	if r.baseline == nil {
		return nil
	}
	_, err := powerlaw.Compare(r.baseline, r.zmBaseline.SSE)
	return err
}

func (r *reissuer) estimate() error {
	opts := estimate.DefaultOptions()
	for _, h := range r.estimates {
		if _, err := estimate.Estimate(h, opts); err != nil {
			return err
		}
	}
	if len(r.invariance) == 0 {
		return nil
	}
	var wins []estimate.WindowEstimate
	for i, h := range r.invariance {
		est, err := estimate.Estimate(h, opts)
		if err != nil {
			return err
		}
		wins = append(wins, estimate.WindowEstimate{Result: est, P: invariancePs[i]})
	}
	if _, err := estimate.Joint(wins); err != nil {
		return err
	}
	_, err := estimate.Scaling(wins)
	return err
}

// pooled is the modified Zipf–Mandelbrot pooled curves: each Fig. 4
// reference and each Fig. 3 fit line.
func (r *reissuer) pooled() error {
	for _, spec := range experiments.Figure4Spec() {
		if !r.names[fmt.Sprintf("fig4/alpha%.1f", spec.Alpha)] {
			continue
		}
		zm, err := zipfmand.Model{Alpha: spec.Alpha, Delta: spec.Delta}.PooledD(figure4DMax)
		if err != nil {
			return err
		}
		r.fig4 = append(r.fig4, &curves{spec: spec, zm: zm})
	}
	for _, p := range r.fig3 {
		md, err := zipfmand.Model{Alpha: p.fit.Alpha, Delta: p.fit.Delta}.PooledD(p.dmax)
		if err != nil {
			return err
		}
		p.md = md
	}
	return nil
}

// curve is the Fig. 4 PALU curve families.
func (r *reissuer) curve() error {
	for _, c := range r.fig4 {
		for _, rr := range c.spec.Rs {
			pd, err := palu.Curve{Alpha: c.spec.Alpha, Delta: c.spec.Delta, R: rr}.PooledD(figure4DMax)
			if err != nil {
				return err
			}
			c.palu = append(c.palu, pd)
		}
	}
	return nil
}

// write renders the Fig. 3 and Fig. 4 CSV rows and charts, and rewrites
// every artifact the pass produced into the scratch directory.
func (r *reissuer) write(scens []scenario.Scenario) func() error {
	return func() error {
		for _, p := range r.fig3 {
			rows := make([][]float64, len(p.mean))
			for i := range p.mean {
				mv := math.NaN()
				if i < len(p.md) {
					mv = p.md[i]
				}
				rows[i] = []float64{float64(hist.BinUpper(i)), p.mean[i], p.sigma[i], mv}
			}
			if err := plotio.WriteCSV(io.Discard, []string{"di", "mean_D", "sigma_D", "zm_fit"}, rows); err != nil {
				return err
			}
			if _, err := plotio.LogLogPlot([]plotio.Series{
				plotio.PooledSeries("observed", p.mean, 'o'),
				plotio.PooledSeries("ZM fit", p.md, '+'),
			}, 72, 18); err != nil {
				return err
			}
		}
		for _, c := range r.fig4 {
			header := []string{"di", "zm"}
			for _, rr := range c.spec.Rs {
				header = append(header, fmt.Sprintf("palu_r%g", rr))
			}
			rows := make([][]float64, len(c.zm))
			for i := range c.zm {
				row := []float64{float64(hist.BinUpper(i)), c.zm[i]}
				for _, pd := range c.palu {
					v := math.NaN()
					if i < len(pd) {
						v = pd[i]
					}
					row = append(row, v)
				}
				rows[i] = row
			}
			if err := plotio.WriteCSV(io.Discard, header, rows); err != nil {
				return err
			}
			if _, err := plotio.LogLogPlot([]plotio.Series{
				plotio.PooledSeries("ZM", c.zm, 'z'),
				plotio.PooledSeries("PALU first", c.palu[0], '.'),
				plotio.PooledSeries("PALU last", c.palu[len(c.palu)-1], '+'),
			}, 72, 18); err != nil {
				return err
			}
		}
		for _, s := range scens {
			for _, name := range s.Outputs {
				b, err := os.ReadFile(filepath.Join(r.o.out, name))
				if err != nil {
					return err
				}
				err = plotio.WriteArtifact(r.o.scratch, name, func(w io.Writer) error {
					_, err := w.Write(b)
					return err
				})
				if err != nil {
					return err
				}
				r.c.WriteBytes += int64(len(b))
				r.c.WriteFiles++
			}
		}
		return nil
	}
}
