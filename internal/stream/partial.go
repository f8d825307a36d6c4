package stream

// Federation support: collecting per-window mergeable partials and
// Table I aggregates out of a pipeline run, and re-deriving
// WindowResults from merged partials. Both directions go through the
// same reduceWindow code as the live pipeline, so a backbone window
// merged from per-site partials is measured by byte-identical machinery
// to a directly observed one.

import (
	"errors"

	"hybridplaw/internal/spmat"
)

// PartialSink is a Sink retaining each window's deterministic mergeable
// partial aggregate, in window order. It requires
// PipelineConfig.KeepPartials; a run without it fails fast on the first
// window. Memory is O(windows × links) — partials are the raw material
// of federation, not a streaming reduction.
type PartialSink struct {
	// Partials holds one WindowPartial per completed window.
	Partials []spmat.WindowPartial
}

// ConsumeWindow implements Sink.
func (s *PartialSink) ConsumeWindow(res *WindowResult) error {
	if res.Partial == nil {
		return errors.New("stream: PartialSink requires PipelineConfig.KeepPartials")
	}
	s.Partials = append(s.Partials, *res.Partial)
	return nil
}

// Reads implements DeclaredSink: a partial is a retained product that
// KeepPartials controls, so the sink reads nothing a read set names.
func (s *PartialSink) Reads() ReadSet { return 0 }

// AggregatesSink is a Sink collecting each window's Table I aggregates,
// in window order. It reads nothing else, so a run that pairs it with a
// one-quantity EnsembleSink reduces that histogram and the aggregates
// alone.
type AggregatesSink struct {
	// Aggregates holds one entry per completed window.
	Aggregates []spmat.Aggregates
}

// ConsumeWindow implements Sink.
func (s *AggregatesSink) ConsumeWindow(res *WindowResult) error {
	s.Aggregates = append(s.Aggregates, res.Aggregates)
	return nil
}

// Reads implements DeclaredSink.
func (s *AggregatesSink) Reads() ReadSet { return ReadAggregates }

// ReducePartial re-derives a WindowResult from a window partial —
// typically one merged from several sites' windows. t is the window
// index to stamp; keepMatrix additionally freezes the spmat.Matrix.
// reads names what the caller reads of the result, as a DeclaredSink's
// Reads would: only their union is built. With no read set it builds
// the Table I aggregates and all five Fig. 1 histograms, as for an
// undeclared sink. The partial's canonical entries load as the sorted
// links of a closed source-major builder, and the reduction runs
// through the identical code path as the live pipeline.
func ReducePartial(t int, p spmat.WindowPartial, keepMatrix bool, reads ...ReadSet) (*WindowResult, error) {
	b := spmat.NewBuilderFromPartial(p)
	u := readAll
	if len(reads) > 0 {
		u = 0
		for _, r := range reads {
			u |= r
		}
	}
	return reduceWindow(t, &PairWindow{b: b}, PipelineConfig{KeepMatrices: keepMatrix}, u)
}
