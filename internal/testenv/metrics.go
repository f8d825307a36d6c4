package testenv

import (
	"testing"

	"hybridplaw/internal/obs"
)

// Metric returns the metric called name in s, and fails tb when s has
// none. A timer named x_ns counts its spans in the counter x_spans_total.
func Metric(tb testing.TB, s obs.Snapshot, name string) obs.Metric {
	tb.Helper()
	for _, m := range s.Metrics {
		if m.Name == name {
			return m
		}
	}
	tb.Fatalf("snapshot has no metric %s", name)
	return obs.Metric{}
}

// MetricNames returns the metric names of s in snapshot (sorted) order.
func MetricNames(s obs.Snapshot) []string {
	out := make([]string, len(s.Metrics))
	for i, m := range s.Metrics {
		out[i] = m.Name
	}
	return out
}
