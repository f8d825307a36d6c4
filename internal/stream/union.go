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
// the throughput knobs take the widest request: Workers and Shards are
// result-invariant by the pipeline's own contract, so the union changes
// wall time only, never bytes. Metrics takes the first non-nil bundle.
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
		u.Workers = unionWidth(u.Workers, c.Workers)
		u.Shards = unionWidth(u.Shards, c.Shards)
		if u.Metrics == nil {
			u.Metrics = c.Metrics
		}
	}
	return u, nil
}

// unionWidth merges two worker/shard requests: any non-positive request
// means "the widest default", which dominates; otherwise the larger
// explicit width wins.
func unionWidth(a, b int) int {
	if a <= 0 || b <= 0 {
		return 0
	}
	if b > a {
		return b
	}
	return a
}
