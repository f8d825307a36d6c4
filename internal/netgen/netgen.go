// Package netgen is the synthetic traffic observatory substituting for the
// MAWI/WIDE (Tokyo) and CAIDA (Chicago) trunk captures used by the paper,
// which are not redistributable (see DESIGN.md §3).
//
// A Site owns an underlying PALU "who talks to whom" network. Each
// observation window draws an Erdős–Rényi edge sample (probability p),
// assigns each observed link a direction and a heavy-tailed packet
// multiplicity (modified Zipf–Mandelbrot weights), and emits the packets
// in randomized order, sprinkled with invalid packets that the measurement
// pipeline must filter. Consecutive windows re-sample the same underlying
// network, reproducing the paper's consecutive-window ensemble
// methodology.
package netgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"hybridplaw/internal/palu"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/xrand"
)

// SiteConfig describes a synthetic observatory site.
type SiteConfig struct {
	// Name labels the site (e.g. "Tokyo-2015").
	Name string
	// Params are the underlying PALU parameters.
	Params palu.Params
	// Nodes is the underlying node budget.
	Nodes int
	// P is the per-window edge observation probability.
	P float64
	// WeightAlpha/WeightDelta parameterize the modified Zipf–Mandelbrot
	// packet-multiplicity law for observed links.
	WeightAlpha, WeightDelta float64
	// MaxWeight caps the per-link packet count (the weight distribution's
	// dmax); must be >= 1.
	MaxWeight int
	// InvalidFraction is the fraction of emitted packets that are invalid
	// (malformed/measurement traffic the windower must discard).
	InvalidFraction float64
	// HubOrientation is the probability that an observed link is directed
	// toward its higher-degree endpoint (client→server asymmetry). 0
	// selects uniform 50/50 orientation.
	HubOrientation float64
	// CoreDegreeFloor, when >= 2, raises underlying core degrees to the
	// floor: a vantage point that only sees established multi-peer
	// infrastructure. This empties the fan-in head and yields the
	// positive-δ panels of Fig. 3 (e.g. Chicago B destination fan-in).
	CoreDegreeFloor int
	// Seed makes the site fully deterministic.
	Seed uint64
}

// Validate checks the configuration.
func (c SiteConfig) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("netgen: %w", err)
	}
	switch {
	case c.Nodes <= 0:
		return errors.New("netgen: Nodes must be positive")
	case c.P <= 0 || c.P > 1 || math.IsNaN(c.P):
		return fmt.Errorf("netgen: P=%v outside (0,1]", c.P)
	case c.InvalidFraction < 0 || c.InvalidFraction >= 1:
		return fmt.Errorf("netgen: InvalidFraction=%v outside [0,1)", c.InvalidFraction)
	case c.HubOrientation < 0 || c.HubOrientation > 1 || math.IsNaN(c.HubOrientation):
		return fmt.Errorf("netgen: HubOrientation=%v outside [0,1]", c.HubOrientation)
	case c.CoreDegreeFloor < 0:
		return fmt.Errorf("netgen: CoreDegreeFloor=%d must be non-negative", c.CoreDegreeFloor)
	}
	if err := c.weightModel().Validate(); err != nil {
		return fmt.Errorf("netgen: weight model: %w", err)
	}
	return nil
}

// weightModel is the site's packet-multiplicity law for observed links.
func (c SiteConfig) weightModel() palu.WeightModel {
	return palu.WeightModel{Alpha: c.WeightAlpha, Delta: c.WeightDelta, MaxWeight: c.MaxWeight}
}

// fingerprintVersion is bumped whenever the meaning of a SiteConfig
// field (or the traffic it generates) changes incompatibly, so stale
// cached traces recorded under the old semantics are never replayed.
const fingerprintVersion = "netgen-site-v1"

// Fingerprint returns a stable content hash of the configuration: equal
// configurations (bit-for-bit, including the seed) always produce the
// same fingerprint, and any field change produces a different one. It is
// the identity under which generated traffic windows are cached (the
// scenario engine's PTRC window cache keys on it), so every field that
// influences the packet stream is folded in exactly — floats by their
// IEEE bit patterns, never by formatting.
func (c SiteConfig) Fingerprint() string {
	h := sha256.New()
	var scratch [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(len(s)))
		h.Write(scratch[:])
		h.Write([]byte(s))
	}
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	str(fingerprintVersion)
	str(c.Name)
	f64(c.Params.C)
	f64(c.Params.L)
	f64(c.Params.U)
	f64(c.Params.Lambda)
	f64(c.Params.Alpha)
	u64(uint64(c.Nodes))
	f64(c.P)
	f64(c.WeightAlpha)
	f64(c.WeightDelta)
	u64(uint64(c.MaxWeight))
	f64(c.InvalidFraction)
	f64(c.HubOrientation)
	u64(uint64(c.CoreDegreeFloor))
	u64(c.Seed)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Site is an instantiated observatory.
type Site struct {
	cfg        SiteConfig
	underlying *palu.Underlying
	weights    *xrand.Alias
	rng        *xrand.RNG
}

// NewSite builds the underlying network and weight sampler.
func NewSite(cfg SiteConfig) (*Site, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	u, err := palu.Generate(cfg.Params, palu.GenerateOptions{
		N:             cfg.Nodes,
		MinCoreDegree: cfg.CoreDegreeFloor,
	}, rng.Split())
	if err != nil {
		return nil, err
	}
	alias, err := cfg.weightModel().Sampler()
	if err != nil {
		return nil, err
	}
	return &Site{cfg: cfg, underlying: u, weights: alias, rng: rng}, nil
}

// ObservationPass performs one edge-sampling pass over the underlying
// network and returns the resulting packets in randomized order. The
// expected packet count is E[weight] · p · |underlying edges| /
// (1 − InvalidFraction adjustments excluded).
func (s *Site) ObservationPass(rng *xrand.RNG) []stream.Packet {
	edges := s.underlying.G.Edges()
	var packets []stream.Packet
	for _, e := range edges {
		if !rng.Bernoulli(s.cfg.P) {
			continue
		}
		src, dst := uint32(e.U), uint32(e.V)
		if s.cfg.HubOrientation > 0 && rng.Bernoulli(s.cfg.HubOrientation) {
			// Direct toward the higher-degree endpoint (client → server).
			if s.underlying.G.Degree(e.U) > s.underlying.G.Degree(e.V) {
				src, dst = uint32(e.V), uint32(e.U)
			} else {
				src, dst = uint32(e.U), uint32(e.V)
			}
		} else if rng.Bernoulli(0.5) {
			src, dst = dst, src
		}
		w := s.weights.Draw(rng) + 1 // weight support is 1..MaxWeight
		for k := 0; k < w; k++ {
			packets = append(packets, stream.Packet{Src: src, Dst: dst, Valid: true})
		}
	}
	// Inject invalid packets.
	if f := s.cfg.InvalidFraction; f > 0 && len(packets) > 0 {
		nInvalid := int(f * float64(len(packets)) / (1 - f))
		for k := 0; k < nInvalid; k++ {
			packets = append(packets, stream.Packet{
				Src:   uint32(rng.Intn(s.cfg.Nodes)),
				Dst:   uint32(rng.Intn(s.cfg.Nodes)),
				Valid: false,
			})
		}
	}
	rng.Shuffle(len(packets), func(i, j int) { packets[i], packets[j] = packets[j], packets[i] })
	return packets
}

// siteSource lazily replays consecutive observation passes of a Site as
// a packet stream: the synthetic counterpart of an unbounded observatory
// tap. Only one pass is ever materialized, so a trace of any length
// streams in memory independent of its duration.
type siteSource struct {
	site *Site
	buf  []stream.Packet
	i    int
	err  error
}

// PacketSource returns a stream.PacketSource that generates observation
// passes on demand from the site's own RNG, forever. Consecutive windows
// cut from it re-sample the same underlying network, reproducing the
// paper's consecutive-window ensemble methodology; bound consumption
// with stream.PipelineConfig.MaxWindows. The stream terminates with an
// error if a pass produces no valid packets (degenerate configuration).
//
// The source is lazy: a run bounded by MaxWindows advances the site's
// RNG only as far as its windows need, and a second run on the same
// source resumes at the next packet. The source draws from the site's
// RNG state: interleaving two sources of one site interleaves their
// sampling.
func (s *Site) PacketSource() stream.PacketSource {
	return &siteSource{site: s}
}

// Next implements stream.PacketSource.
func (ss *siteSource) Next() (stream.Packet, bool) {
	for ss.i >= len(ss.buf) {
		if ss.err != nil {
			return stream.Packet{}, false
		}
		pass := ss.site.ObservationPass(ss.site.rng.Split())
		valid := 0
		for _, p := range pass {
			if p.Valid {
				valid++
			}
		}
		if valid == 0 {
			ss.err = errors.New("netgen: observation pass produced no valid packets")
			return stream.Packet{}, false
		}
		ss.buf, ss.i = pass, 0
	}
	p := ss.buf[ss.i]
	ss.i++
	return p, true
}

// Err implements stream.PacketSource.
func (ss *siteSource) Err() error { return ss.err }

// PanelSpec records one Fig. 3 panel: the site preset, the network
// quantity displayed, the window size, and the paper's published fit.
type PanelSpec struct {
	// ID is a short identifier (e.g. "tokyo2015-srcpk").
	ID string
	// Site produces the synthetic traffic.
	Site SiteConfig
	// Quantity is the Fig. 1 network quantity plotted.
	Quantity stream.Quantity
	// NV is the (laptop-scaled) window size in valid packets.
	NV int64
	// Windows is the number of consecutive windows for the ±1σ ensemble.
	Windows int
	// PaperAlpha and PaperDelta are the fitted parameters printed in
	// Fig. 3 of the paper.
	PaperAlpha, PaperDelta float64
	// PaperNV is the window size the paper used (documentation; the
	// laptop-scaled NV above exercises the same code path).
	PaperNV float64
}

// mustParams builds PALU parameters from weights, panicking on error
// (preset tables are static and covered by tests).
func mustParams(wc, wl, wu, lambda, alpha float64) palu.Params {
	p, err := palu.FromWeights(wc, wl, wu, lambda, alpha)
	if err != nil {
		panic(err)
	}
	return p
}

// Figure3Panels returns the six panels reproduced from Fig. 3. Underlying
// network sizes and NV are scaled to laptop budgets (the paper's NV spans
// 1e5–3e8); parameters are calibrated so the fitted (α, δ) land in the
// paper's reported neighbourhood, with exact values recorded by the
// harness into EXPERIMENTS.md.
func Figure3Panels() []PanelSpec {
	return []PanelSpec{
		{
			ID: "tokyo2015-source-packets",
			Site: SiteConfig{
				Name:   "Tokyo-2015",
				Params: mustParams(2, 4, 1.7, 1.5, 2.05),
				Nodes:  120000, P: 0.4,
				WeightAlpha: 2.2, WeightDelta: -0.92, MaxWeight: 4096,
				InvalidFraction: 0.02, Seed: 20150801,
			},
			Quantity: stream.SourcePackets,
			NV:       200000, Windows: 6,
			PaperAlpha: 2.01, PaperDelta: -0.833, PaperNV: 1e6,
		},
		{
			ID: "tokyo2017-source-fanout",
			Site: SiteConfig{
				Name:   "Tokyo-2017",
				Params: mustParams(2, 3, 1.6, 2.2, 1.7),
				Nodes:  150000, P: 0.45,
				WeightAlpha: 1.9, WeightDelta: -0.5, MaxWeight: 2048,
				InvalidFraction: 0.02, Seed: 20170401,
			},
			Quantity: stream.SourceFanOut,
			NV:       300000, Windows: 6,
			PaperAlpha: 1.68, PaperDelta: -0.758, PaperNV: 3e7,
		},
		{
			ID: "chicagoA2016jan-link-packets",
			Site: SiteConfig{
				Name:   "Chicago-A-2016-Jan",
				Params: mustParams(2, 2, 1, 1.5, 2.2),
				Nodes:  60000, P: 0.45,
				WeightAlpha: 2.25, WeightDelta: 0.602, MaxWeight: 4096,
				InvalidFraction: 0.02, Seed: 20160115,
			},
			Quantity: stream.LinkPackets,
			NV:       100000, Windows: 6,
			PaperAlpha: 2.25, PaperDelta: 0.602, PaperNV: 1e5,
		},
		{
			ID: "chicagoB2016mar-dest-fanin",
			Site: SiteConfig{
				// This vantage sees established multi-peer infrastructure:
				// the core degree floor empties the fan-in head, producing
				// the paper's positive-δ panel.
				Name:   "Chicago-B-2016-Mar",
				Params: mustParams(5, 0.05, 0.02, 2.0, 1.62),
				Nodes:  21000, P: 0.95,
				WeightAlpha: 3.5, WeightDelta: 1.0, MaxWeight: 2048,
				InvalidFraction: 0.02, CoreDegreeFloor: 12, Seed: 20160310,
			},
			Quantity: stream.DestinationFanIn,
			NV:       450000, Windows: 6,
			PaperAlpha: 1.76, PaperDelta: 0.871, PaperNV: 1e8,
		},
		{
			ID: "chicagoA2016feb-dest-packets",
			Site: SiteConfig{
				Name:   "Chicago-A-2016-Feb",
				Params: mustParams(2, 3.6, 1.5, 1.3, 2.1),
				Nodes:  90000, P: 0.4,
				WeightAlpha: 2.45, WeightDelta: -0.75, MaxWeight: 4096,
				InvalidFraction: 0.02, Seed: 20160220,
			},
			Quantity: stream.DestinationPackets,
			NV:       300000, Windows: 6,
			PaperAlpha: 2.26, PaperDelta: -0.349, PaperNV: 3e5,
		},
		{
			ID: "tokyo2017-dest-packets",
			Site: SiteConfig{
				Name:   "Tokyo-2017-dest",
				Params: mustParams(2, 5, 2, 1.4, 1.82),
				Nodes:  150000, P: 0.4,
				WeightAlpha: 1.95, WeightDelta: -0.93, MaxWeight: 8192,
				InvalidFraction: 0.02, Seed: 20170402,
			},
			Quantity: stream.DestinationPackets,
			NV:       300000, Windows: 6,
			PaperAlpha: 1.74, PaperDelta: -0.92, PaperNV: 3e8,
		},
	}
}
