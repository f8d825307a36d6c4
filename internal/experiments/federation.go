package experiments

// The federation scenario family: cross-site aggregation built on the
// mergeable window partials of the streaming reduction. K synthetic
// observatory sites are each recorded once through the PTRC window
// cache and replayed through the streaming pipeline with KeepPartials;
// their per-window partials are rebased into disjoint id spaces and
// merged — in fixed site order, though Merge is associative and
// commutative so any order yields the identical backbone — into a
// synthetic backbone view, the mixed-flow superposition of Li et al.
// ("A Mixed-Fractal Model for Network Traffic"). Model selection then
// runs on the merged backbone distribution next to each per-site
// distribution, probing how aggregation level moves the fitted law
// (the concern Clegg et al. raise for power-law conclusions at scale).

import (
	"fmt"
	"io"
	"strings"

	"hybridplaw/internal/model"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/scenario"
	"hybridplaw/internal/spmat"
	"hybridplaw/internal/stream"
)

// Federation suite geometry: every site contributes the same window
// grid so backbone window t superposes the sites' windows t exactly.
const (
	federationNV      = 120000
	federationWindows = 4
	// federationIDStride separates site id spaces under Rebase: far
	// above any federation site's node budget, far below uint32 overflow
	// for the site count.
	federationIDStride = 1 << 24
)

// FederationSite is one member observatory of the federation suite.
type FederationSite struct {
	// ID is the scenario name suffix ("fed-tokyo").
	ID string
	// Site configures the synthetic observatory.
	Site netgen.SiteConfig
}

// federationParams builds PALU parameters for a federation site,
// panicking on error (the preset table is static and covered by tests).
func federationParams(wc, wl, wu, lambda, alpha float64) palu.Params {
	p, err := palu.FromWeights(wc, wl, wu, lambda, alpha)
	if err != nil {
		panic(err)
	}
	return p
}

// FederationSites returns the K=3 member sites of the federation suite:
// deliberately heterogeneous mixes (leaf-heavy edge, core-heavy trunk,
// star-rich access) so the superposed backbone is not a rescaled copy
// of any member.
func FederationSites() []FederationSite {
	return []FederationSite{
		{
			ID: "fed-tokyo",
			Site: netgen.SiteConfig{
				Name:   "Fed-Tokyo",
				Params: federationParams(2, 3, 1.5, 1.8, 2.0),
				Nodes:  40000, P: 0.5,
				WeightAlpha: 2.1, WeightDelta: -0.6, MaxWeight: 2048,
				InvalidFraction: 0.02, Seed: 20210601,
			},
		},
		{
			ID: "fed-chicago-a",
			Site: netgen.SiteConfig{
				Name:   "Fed-Chicago-A",
				Params: federationParams(2, 2, 1, 1.5, 2.2),
				Nodes:  30000, P: 0.5,
				WeightAlpha: 2.3, WeightDelta: 0.3, MaxWeight: 2048,
				InvalidFraction: 0.02, Seed: 20210602,
			},
		},
		{
			ID: "fed-chicago-b",
			Site: netgen.SiteConfig{
				Name:   "Fed-Chicago-B",
				Params: federationParams(3, 1, 0.5, 2.0, 1.8),
				Nodes:  25000, P: 0.6,
				WeightAlpha: 2.0, WeightDelta: -0.3, MaxWeight: 1024,
				InvalidFraction: 0.02, Seed: 20210603,
			},
		},
	}
}

// federationReq is the declared traffic window set of one member site.
func federationReq(s FederationSite) scenario.WindowReq {
	return scenario.WindowReq{Site: s.Site, NV: federationNV, Windows: federationWindows}
}

// FederationSiteResult is the per-site half of the federation contrast:
// one member's merged source-packets distribution with its model
// selection table.
type FederationSiteResult struct {
	// ID names the site.
	ID string
	// PerWindow are the Table I aggregates of each window, in order.
	PerWindow []spmat.Aggregates
	// Selection ranks the approximating families on the merged
	// source-packets histogram.
	Selection ModelSelectionResult
}

// Summary implements scenario.Result.
func (r FederationSiteResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "site %s: %d windows × NV=%d\n", r.ID, len(r.PerWindow), federationNV)
	for t, a := range r.PerWindow {
		fmt.Fprintf(&b, "  t=%d links=%d sources=%d destinations=%d\n",
			t, a.UniqueLinks, a.UniqueSources, a.UniqueDestinations)
	}
	b.WriteString(r.Selection.Summary())
	return b.String()
}

// federationSite is the per-site result: one replay of the member
// site into its per-window aggregates and the model selection on its
// merged source-packets histogram. It is computed once per engine run:
// federation/<id> returns it and federation/backbone reads its
// selection.
func federationSite(ctx *scenario.Context, s FederationSite) (FederationSiteResult, error) {
	q, fitters := stream.SourcePackets.String(), approximatingFitters()
	return scenario.Memo(ctx, federationReq(s), "site/"+q+"/"+strings.Join(fitters, ","),
		func() (FederationSiteResult, error) {
			ens := stream.NewEnsembleSink(stream.SourcePackets)
			aggs := &stream.AggregatesSink{}
			if _, err := ctx.Stream(federationReq(s), stream.PipelineConfig{}, ens, aggs); err != nil {
				return FederationSiteResult{}, fmt.Errorf("site %s: %w", s.ID, err)
			}
			sel, err := selectModels("federation site "+s.ID, q, ens.Merged(stream.SourcePackets),
				model.Default().Instrument(ctx.FitMetrics()), fitters)
			if err != nil {
				return FederationSiteResult{}, fmt.Errorf("site %s: %w", s.ID, err)
			}
			return FederationSiteResult{ID: s.ID, PerWindow: aggs.Aggregates, Selection: sel}, nil
		})
}

// federationPartials replays one member site for its per-window
// partials alone: only the backbone needs them, so the per-site
// scenarios skip the per-window canonicalization sort.
func federationPartials(ctx *scenario.Context, s FederationSite) ([]spmat.WindowPartial, error) {
	partials := &stream.PartialSink{}
	if _, err := ctx.Stream(federationReq(s), stream.PipelineConfig{KeepPartials: true}, partials); err != nil {
		return nil, fmt.Errorf("site %s: %w", s.ID, err)
	}
	return partials.Partials, nil
}

// FederationWindowRow is one backbone window in the per-window table:
// the member sites' link counts next to the merged aggregates.
type FederationWindowRow struct {
	// T is the window index.
	T int
	// SiteLinks[i] is site i's unique-link count in window T.
	SiteLinks []int64
	// Backbone is the merged window's Table I aggregates.
	Backbone spmat.Aggregates
}

// FederationBackboneResult is the merged half of the contrast: the
// synthetic backbone built by merging the member sites' rebased window
// partials, with its per-window aggregates and model selection.
type FederationBackboneResult struct {
	// SiteIDs lists the member sites in merge order.
	SiteIDs []string
	// PerWindow tabulates each backbone window against its members.
	PerWindow []FederationWindowRow
	// SiteSelections are the members' selection tables, in site order:
	// in an engine run, the ones federation/<id> computed.
	SiteSelections []ModelSelectionResult
	// Backbone ranks the approximating families on the merged backbone
	// source-packets histogram.
	Backbone ModelSelectionResult
}

// Summary implements scenario.Result.
func (r FederationBackboneResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "backbone of %s: %d windows × NV=%d\n",
		strings.Join(r.SiteIDs, "+"), len(r.PerWindow), len(r.SiteIDs)*federationNV)
	for _, row := range r.PerWindow {
		fmt.Fprintf(&b, "  t=%d site links=%v backbone links=%d sources=%d destinations=%d\n",
			row.T, row.SiteLinks, row.Backbone.UniqueLinks,
			row.Backbone.UniqueSources, row.Backbone.UniqueDestinations)
	}
	for i, sel := range r.SiteSelections {
		fmt.Fprintf(&b, "site %-14s winner: %s (family %s)\n",
			r.SiteIDs[i], sel.Winner(), sel.WinnerFamily())
	}
	fmt.Fprintf(&b, "backbone       winner: %s (family %s)\n", r.Backbone.Winner(), r.Backbone.WinnerFamily())
	b.WriteString(r.Backbone.Summary())
	return b.String()
}

// runFederationBackbone is the "federation/backbone" scenario compute.
func runFederationBackbone(ctx *scenario.Context, sites []FederationSite) (FederationBackboneResult, error) {
	res := FederationBackboneResult{}
	rebased := make([][]spmat.WindowPartial, len(sites))
	for i, s := range sites {
		siteRes, err := federationSite(ctx, s)
		if err != nil {
			return FederationBackboneResult{}, err
		}
		partials, err := federationPartials(ctx, s)
		if err != nil {
			return FederationBackboneResult{}, err
		}
		if len(partials) != federationWindows {
			return FederationBackboneResult{}, fmt.Errorf(
				"site %s replayed %d windows, need %d", s.ID, len(partials), federationWindows)
		}
		res.SiteIDs = append(res.SiteIDs, s.ID)
		res.SiteSelections = append(res.SiteSelections, siteRes.Selection)
		rebased[i] = make([]spmat.WindowPartial, federationWindows)
		offset := uint32(i) * federationIDStride
		for t, p := range partials {
			rp, err := p.Rebase(offset)
			if err != nil {
				return FederationBackboneResult{}, fmt.Errorf("site %s window %d: %w", s.ID, t, err)
			}
			rebased[i][t] = rp
		}
	}

	// Merge per window in fixed site order and measure each backbone
	// window through the same reduction machinery as the live pipeline,
	// reducing only what is read here: the source-packets histogram and
	// the aggregates of the link check below.
	backboneEns := stream.NewEnsembleSink(stream.SourcePackets)
	for t := 0; t < federationWindows; t++ {
		merged := rebased[0][t]
		var siteLinks []int64
		siteLinks = append(siteLinks, int64(rebased[0][t].NNZ()))
		for i := 1; i < len(rebased); i++ {
			merged = merged.Merge(rebased[i][t])
			siteLinks = append(siteLinks, int64(rebased[i][t].NNZ()))
		}
		win, err := stream.ReducePartial(t, merged, false,
			backboneEns.Reads()|stream.ReadAggregates)
		if err != nil {
			return FederationBackboneResult{}, fmt.Errorf("backbone window %d: %w", t, err)
		}
		// Rebased id spaces are disjoint, so backbone links must add
		// exactly; a mismatch means the merge lost or aliased state.
		var sum int64
		for _, l := range siteLinks {
			sum += l
		}
		if win.Aggregates.UniqueLinks != sum {
			return FederationBackboneResult{}, fmt.Errorf(
				"backbone window %d: %d links, member sum %d", t, win.Aggregates.UniqueLinks, sum)
		}
		if err := backboneEns.ConsumeWindow(win); err != nil {
			return FederationBackboneResult{}, err
		}
		res.PerWindow = append(res.PerWindow, FederationWindowRow{
			T: t, SiteLinks: siteLinks, Backbone: win.Aggregates,
		})
	}
	sel, err := selectModels("federation backbone", stream.SourcePackets.String(),
		backboneEns.Merged(stream.SourcePackets), model.Default().Instrument(ctx.FitMetrics()), approximatingFitters())
	if err != nil {
		return FederationBackboneResult{}, err
	}
	res.Backbone = sel
	return res, nil
}

// RunFederationBackbone is the standalone wrapper over the
// "federation/backbone" scenario's compute.
func RunFederationBackbone() (FederationBackboneResult, error) {
	return runFederationBackbone(scenario.Standalone(), FederationSites())
}

// writeFederationWindowsCSV renders the per-window backbone table.
func writeFederationWindowsCSV(w io.Writer, r FederationBackboneResult) error {
	header := "t"
	for _, id := range r.SiteIDs {
		header += ",links_" + id
	}
	header += ",backbone_nv,backbone_links,backbone_sources,backbone_destinations"
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, row := range r.PerWindow {
		fields := fmt.Sprintf("%d", row.T)
		for _, l := range row.SiteLinks {
			fields += fmt.Sprintf(",%d", l)
		}
		fields += fmt.Sprintf(",%d,%d,%d,%d", row.Backbone.ValidPackets,
			row.Backbone.UniqueLinks, row.Backbone.UniqueSources, row.Backbone.UniqueDestinations)
		if _, err := fmt.Fprintln(w, fields); err != nil {
			return err
		}
	}
	return nil
}

// writeFederationCompareCSV renders the site-vs-backbone winner table.
func writeFederationCompareCSV(w io.Writer, r FederationBackboneResult) error {
	if _, err := fmt.Fprintln(w, "scope,n,dmax,winner,winner_family,winner_params"); err != nil {
		return err
	}
	write := func(scope string, sel ModelSelectionResult) error {
		params := ""
		if best, ok := sel.Selection.Best(); ok {
			params = strings.ReplaceAll(best.ParamString(), " ", ";")
		}
		_, err := fmt.Fprintf(w, "%s,%d,%d,%s,%s,%s\n",
			scope, sel.N, sel.DMax, sel.Winner(), sel.WinnerFamily(), params)
		return err
	}
	for i, sel := range r.SiteSelections {
		if err := write(r.SiteIDs[i], sel); err != nil {
			return err
		}
	}
	return write("backbone", r.Backbone)
}
