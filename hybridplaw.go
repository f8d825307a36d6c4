// Package hybridplaw is a Go implementation of "Hybrid Power-Law Models of
// Network Traffic" (Devlin, Kepner, Luo, Meger — IPDPS workshops 2021,
// arXiv:2103.15928): the PALU (Preferential Attachment + Leaves +
// Unattached links) generative model of Internet traffic, the modified
// Zipf–Mandelbrot distribution it explains, the streaming measurement
// pipeline both are fitted against, and the Section IV.B parameter
// estimators.
//
// The package is a façade over the internal packages, so downstream
// users never import hybridplaw/internal. It holds an exported function
// only when a command under cmd/, a program under examples/ or an
// Example in this package calls it; TestFacadeSurface enforces the rule.
//
// The quick start is the package Example; README.md quotes it and the
// package's other Examples verbatim. See examples/ for runnable
// programs and DESIGN.md for the experiment index mapping every table
// and figure of the paper to code.
package hybridplaw

import (
	"io"

	"hybridplaw/internal/boot"
	"hybridplaw/internal/estimate"
	"hybridplaw/internal/experiments"
	"hybridplaw/internal/graph"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/model"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/powerlaw"
	"hybridplaw/internal/scenario"
	"hybridplaw/internal/spmat"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/tracestore"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

// RNG is a deterministic, splittable random generator (xoshiro256**).
type RNG = xrand.RNG

// NewRNG returns a generator seeded via splitmix64.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// PALUParams are the five window-invariant parameters of the PALU model
// (C, L, U, λ, α) with the Section III.A normalization constraint.
type PALUParams = palu.Params

// PALUObservation couples parameters with the window-size parameter p.
type PALUObservation = palu.Observation

// PALUConstants are the reduced degree-law constants (c, l, u, μ, Λ, α).
type PALUConstants = palu.Constants

// PALUCurve is the one-parameter Eq. (5) family bridging PALU and the
// modified Zipf–Mandelbrot distribution.
type PALUCurve = palu.Curve

// PALUUnderlying is a generated underlying network with its categories.
type PALUUnderlying = palu.Underlying

// PALUGenerateOptions configures graph-based generation.
type PALUGenerateOptions = palu.GenerateOptions

// PALUFromWeights builds parameters from relative section weights,
// normalizing to satisfy the model constraint exactly.
func PALUFromWeights(wc, wl, wu, lambda, alpha float64) (PALUParams, error) {
	return palu.FromWeights(wc, wl, wu, lambda, alpha)
}

// NewPALUObservation validates an observation configuration.
func NewPALUObservation(params PALUParams, p float64) (PALUObservation, error) {
	return palu.NewObservation(params, p)
}

// GeneratePALU builds an explicit underlying multigraph.
func GeneratePALU(params PALUParams, opts PALUGenerateOptions, rng *RNG) (*PALUUnderlying, error) {
	return palu.Generate(params, opts, rng)
}

// FastObservedHistogram samples the observed degree histogram directly
// from the model's probabilistic description (scales far beyond the graph
// path).
func FastObservedHistogram(params PALUParams, n int, p float64, rng *RNG) (*Histogram, error) {
	return palu.FastObservedHistogram(params, n, p, rng)
}

// Histogram is a degree histogram n(d) for d >= 1.
type Histogram = hist.Histogram

// Pooled is a binary-logarithmically pooled differential cumulative
// probability distribution D(di), di = 2^i.
type Pooled = hist.Pooled

// Ensemble accumulates pooled distributions across windows (mean ± σ).
type Ensemble = hist.Ensemble

// NewHistogram returns an empty degree histogram.
func NewHistogram() *Histogram { return hist.New() }

// HistogramFromCounts builds a histogram from degree → count.
func HistogramFromCounts(counts map[int]int64) (*Histogram, error) {
	return hist.FromCounts(counts)
}

// ZipfMandelbrot is the modified Zipf–Mandelbrot model p(d) ∝ (d+δ)^{−α}.
type ZipfMandelbrot = zipfmand.Model

// ZMFitResult is a fitted modified Zipf–Mandelbrot model with diagnostics.
type ZMFitResult = zipfmand.FitResult

// ZMFitOptions controls the fit objective and starts.
type ZMFitOptions = zipfmand.FitOptions

// FitZipfMandelbrot fits (α, δ) to a histogram's pooled distribution with
// the default (log-space least squares) objective.
func FitZipfMandelbrot(h *Histogram) (ZMFitResult, *Pooled, error) {
	return zipfmand.FitHistogram(h, zipfmand.DefaultFitOptions())
}

// FitZipfMandelbrotPooled fits (α, δ) to an explicit pooled distribution.
func FitZipfMandelbrotPooled(obs *Pooled, dmax int, opts ZMFitOptions) (ZMFitResult, error) {
	return zipfmand.Fit(obs, dmax, opts)
}

// EstimateResult holds Section IV.B estimates for a single window.
type EstimateResult = estimate.Result

// WindowEstimate pairs a window estimate with its sampling probability.
type WindowEstimate = estimate.WindowEstimate

// JointEstimate is the cross-window lift to underlying parameters.
type JointEstimate = estimate.JointResult

// EstimatePALU runs the Section IV.B pipeline with default options.
func EstimatePALU(h *Histogram) (EstimateResult, error) {
	return estimate.Estimate(h, estimate.DefaultOptions())
}

// JointEstimatePALU lifts per-window estimates to the underlying
// window-invariant parameters.
func JointEstimatePALU(windows []WindowEstimate) (JointEstimate, error) {
	return estimate.Joint(windows)
}

// PowerLawFit is the Clauset–Shalizi–Newman discrete power-law baseline.
type PowerLawFit = powerlaw.Fit

// FitPowerLaw runs the CSN procedure (KS-optimal xmin, MLE exponent).
func FitPowerLaw(h *Histogram) (PowerLawFit, error) {
	return powerlaw.FitScan(h, 0)
}

// Model is a fitted degree distribution behind the unified model layer:
// every family (modified Zipf–Mandelbrot, power laws, PALU constants,
// discrete lognormal, truncated power law) implements
// Name/Params/LogLik/PMF.
type Model = model.Model

// ModelParam is one named fitted parameter.
type ModelParam = model.Param

// ModelFitResult is a fitted model with its likelihood statistics
// (LogLik, AIC, BIC) and family diagnostics.
type ModelFitResult = model.FitResult

// ModelFitter fits one family to a histogram; fitters live in a
// ModelRegistry under stable names ("zm", "zm-mle", "csn", "plaw",
// "palu", "lognormal", "truncplaw").
type ModelFitter = model.Fitter

// ModelRegistry is an ordered, name-unique fitter collection.
type ModelRegistry = model.Registry

// ModelSelection is the outcome of likelihood-based selection: AIC
// ranking, Akaike weights, and winner-vs-candidate Vuong tests.
type ModelSelection = model.Selection

// DefaultModelRegistry returns a fresh registry with every built-in
// fitter. Registry-routed zm/csn/palu fits are numerically identical to
// FitZipfMandelbrot/FitPowerLaw/EstimatePALU.
func DefaultModelRegistry() *ModelRegistry { return model.Default() }

// SelectModels ranks candidate fits on a histogram by AIC and runs the
// Vuong LLR test between the winner and every runner-up.
func SelectModels(h *Histogram, results []ModelFitResult) (ModelSelection, error) {
	return model.Select(h, results)
}

// BootstrapInterval is a two-sided percentile interval from the shared
// parallel bootstrap engine.
type BootstrapInterval = boot.Interval

// PALUConfidenceIntervals are bootstrap intervals for the Section IV.B
// constants.
type PALUConfidenceIntervals = estimate.ConfidenceIntervals

// ZMConfidenceIntervals are bootstrap intervals for the fitted
// Zipf–Mandelbrot (α, δ).
type ZMConfidenceIntervals = zipfmand.ConfidenceIntervals

// BootstrapPALU resamples the histogram and re-runs the Section IV.B
// pipeline on the shared parallel bootstrap engine (deterministic
// per-replicate RNG streams; results are the same at every GOMAXPROCS).
func BootstrapPALU(h *Histogram, reps int, level float64, rng *RNG) (PALUConfidenceIntervals, error) {
	return estimate.BootstrapEstimate(h, estimate.DefaultOptions(), reps, level, rng)
}

// BootstrapZipfMandelbrot bootstraps (α, δ) percentile intervals for
// the default least-squares ZM fit.
func BootstrapZipfMandelbrot(h *Histogram, reps int, level float64, rng *RNG) (ZMConfidenceIntervals, error) {
	return zipfmand.BootstrapCI(h, zipfmand.DefaultFitOptions(), reps, level, rng)
}

// BootstrapPowerLawPValue runs the CSN parametric bootstrap
// goodness-of-fit test on the shared engine.
func BootstrapPowerLawPValue(h *Histogram, f PowerLawFit, reps int, rng *RNG) (float64, error) {
	return powerlaw.BootstrapPValue(h, f, reps, rng)
}

// Packet is one observed packet in a traffic stream.
type Packet = stream.Packet

// Quantity enumerates the five Fig. 1 network quantities.
type Quantity = stream.Quantity

// The five streaming network quantities of Fig. 1.
const (
	SourcePackets      = stream.SourcePackets
	SourceFanOut       = stream.SourceFanOut
	LinkPackets        = stream.LinkPackets
	DestinationFanIn   = stream.DestinationFanIn
	DestinationPackets = stream.DestinationPackets
)

// NumQuantities is the number of Fig. 1 network quantities.
const NumQuantities = stream.NumQuantities

// PacketSource is a pull iterator over a packet trace; the input side of
// the streaming pipeline.
type PacketSource = stream.PacketSource

// Sink consumes completed pipeline windows in strict window order.
type Sink = stream.Sink

// FuncSink adapts a function to the Sink interface.
type FuncSink = stream.FuncSink

// WindowResult is one completed pipeline window: the Table I aggregates
// and Fig. 1 quantity histograms its run's sinks read (all of them when
// any sink does not declare its reads, as FuncSink does not).
type WindowResult = stream.WindowResult

// PipelineConfig configures a streaming pipeline run.
type PipelineConfig = stream.PipelineConfig

// PipelineStats summarizes a pipeline run.
type PipelineStats = stream.PipelineStats

// EnsembleSink accumulates per-quantity cross-window ensembles and merged
// histograms in O(log dmax) memory.
type EnsembleSink = stream.EnsembleSink

// ResultCollector is a Sink retaining every WindowResult (O(windows)
// memory; with KeepMatrices, each window's frozen matrix too).
type ResultCollector = stream.ResultCollector

// CSVSource streams a trace CSV through the pipeline in bounded memory.
type CSVSource = stream.CSVSource

// RunPipeline executes the single-pass streaming pipeline: packets are
// pulled from src, cut into fixed-NV windows, reduced to what the sinks
// read, and delivered to the sinks in window order, all on the calling
// goroutine. One window is resident at a time.
func RunPipeline(src PacketSource, cfg PipelineConfig, sinks ...Sink) (PipelineStats, error) {
	return stream.Run(src, cfg, sinks...)
}

// NewCSVSource returns a streaming reader over a trace CSV.
func NewCSVSource(r io.Reader) *CSVSource { return stream.NewCSVSource(r) }

// PacketCounter is the optional accounting extension of PacketSource:
// counting sources surface their packet totals in
// PipelineStats.SourcePacketsRead so truncated traces are detectable.
type PacketCounter = stream.PacketCounter

// TraceWriterOptions configures PTRC archiving (block size and
// metrics); the zero value selects the defaults.
type TraceWriterOptions = tracestore.WriterOptions

// TraceReader replays a PTRC archive sequentially; it implements
// PacketSource, and the pipeline ingests it through its fused block
// decode.
type TraceReader = tracestore.Reader

// ErrCorruptTrace is wrapped by every error caused by a damaged PTRC
// archive (truncation, checksum mismatch, bad magic).
var ErrCorruptTrace = tracestore.ErrCorrupt

// RecordTrace archives an entire PacketSource into w as one PTRC archive
// and returns the packet count.
func RecordTrace(w io.Writer, src PacketSource, opts TraceWriterOptions) (int64, error) {
	return tracestore.Record(w, src, opts)
}

// NewTraceReader returns a sequential PTRC reader over r.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	return tracestore.NewReader(r)
}

// TakeValidPackets limits a source to the prefix ending at its n-th
// valid packet — exactly what a MaxWindows-bounded pipeline run
// consumes, so recorded traces replay bit-identically.
func TakeValidPackets(src PacketSource, n int64) PacketSource {
	return stream.TakeValid(src, n)
}

// NewEnsembleSink returns a sink accumulating the given quantities (all
// five when called with no arguments).
func NewEnsembleSink(qs ...Quantity) *EnsembleSink { return stream.NewEnsembleSink(qs...) }

// TrafficMatrix is a sparse traffic matrix At.
type TrafficMatrix = spmat.Matrix

// TrafficAggregates bundles the four Table I aggregate properties.
type TrafficAggregates = spmat.Aggregates

// WindowPartial is a deterministic, mergeable partial aggregate of a
// traffic window: the unit of cross-site federation. Merge is
// associative and commutative; Rebase separates per-site id spaces.
type WindowPartial = spmat.WindowPartial

// PartialSink is a Sink retaining each window's WindowPartial (requires
// PipelineConfig.KeepPartials).
type PartialSink = stream.PartialSink

// ReduceWindowPartial re-derives a full WindowResult (Table I
// aggregates and all five Fig. 1 histograms) from a window partial —
// typically one merged from several sites.
func ReduceWindowPartial(t int, p WindowPartial, keepMatrix bool) (*WindowResult, error) {
	return stream.ReducePartial(t, p, keepMatrix)
}

// Graph is an undirected multigraph.
type Graph = graph.Graph

// Topology is the Fig. 2 decomposition of a traffic network.
type Topology = graph.Topology

// SiteConfig configures a synthetic traffic observatory (the MAWI/CAIDA
// substitute).
type SiteConfig = netgen.SiteConfig

// Site is an instantiated observatory.
type Site = netgen.Site

// NewSite builds an observatory from a configuration.
func NewSite(cfg SiteConfig) (*Site, error) { return netgen.NewSite(cfg) }

// Scenario is one declarative experiment: a named unit of the paper
// suite with its declared output artifacts and traffic windows.
type Scenario = scenario.Scenario

// ScenarioResult is the typed outcome of a scenario (its summary.txt
// fragment renderer).
type ScenarioResult = scenario.Result

// ScenarioContext is a scenario's handle onto the engine during Run:
// declared-window streaming (cache-backed) and artifact output.
type ScenarioContext = scenario.Context

// ScenarioRegistry is an ordered, name-unique scenario collection.
type ScenarioRegistry = scenario.Registry

// ScenarioEngine runs a registry's scenarios in registration order on a
// bounded worker pool, with generated traffic windows recorded once
// into a PTRC cache and replayed thereafter.
type ScenarioEngine = scenario.Engine

// ScenarioConfig configures a ScenarioEngine (workers, output directory,
// window cache directory).
type ScenarioConfig = scenario.Config

// ScenarioReport is the outcome of one scenario run.
type ScenarioReport = scenario.Report

// WindowRequirement declares one synthetic traffic window set a scenario
// streams; equal requirements share one cached PTRC archive.
type WindowRequirement = scenario.WindowReq

// WindowCacheStats summarizes PTRC window-cache traffic over a run.
type WindowCacheStats = scenario.CacheStats

// NewScenarioEngine validates the configuration and opens the window
// cache (when configured).
func NewScenarioEngine(reg *ScenarioRegistry, cfg ScenarioConfig) (*ScenarioEngine, error) {
	return scenario.NewEngine(reg, cfg)
}

// SummarizeScenarioReports renders engine reports into the deterministic
// suite summary (the content of summary.txt).
func SummarizeScenarioReports(reports []ScenarioReport) string {
	return scenario.Summarize(reports)
}

// PaperRegistry returns a registry pre-loaded with the full paper suite.
func PaperRegistry(seed uint64) *ScenarioRegistry { return experiments.MustRegistry(seed) }
