package stream

import (
	"errors"
	"fmt"
)

// UnionConfigs merges the pipeline configurations of several consumers
// of one window sequence into the single configuration of one run that
// feeds all their sinks. Window geometry (NV, MaxWindows) must agree —
// consumers of one window sequence cut it identically. The
// retention flags are OR-ed (a consumer that asked for matrices or
// partials gets them; the others simply ignore the extra fields), and
// Metrics takes the first non-nil bundle.
func UnionConfigs(cfgs ...PipelineConfig) (PipelineConfig, error) {
	if len(cfgs) == 0 {
		return PipelineConfig{}, errors.New("stream: union of zero pipeline configs")
	}
	u := cfgs[0]
	for _, c := range cfgs[1:] {
		if c.NV != u.NV || c.MaxWindows != u.MaxWindows {
			return PipelineConfig{}, fmt.Errorf(
				"stream: cannot union pipeline configs with different window geometry (%d×%d vs %d×%d)",
				u.MaxWindows, u.NV, c.MaxWindows, c.NV)
		}
		u.KeepMatrices = u.KeepMatrices || c.KeepMatrices
		u.KeepPartials = u.KeepPartials || c.KeepPartials
		if u.Metrics == nil {
			u.Metrics = c.Metrics
		}
	}
	return u, nil
}

// unionReads merges the read sets of the sinks of one run, the way
// UnionConfigs merges their retention flags: the union of every
// DeclaredSink's Reads, or readAll as soon as one sink declares nothing.
// Zero sinks read nothing.
func unionReads(sinks ...Sink) ReadSet {
	var u ReadSet
	for _, s := range sinks {
		d, ok := s.(DeclaredSink)
		if !ok {
			return readAll
		}
		u |= d.Reads()
	}
	return u
}
