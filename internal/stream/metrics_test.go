package stream

import (
	"reflect"
	"testing"

	"hybridplaw/internal/obs"
	"hybridplaw/internal/testenv"
)

// TestMetricsExactCounters pins the deterministic counters: packets,
// windows and tail must exactly match PipelineStats, and the window
// close and sink timers must span once per window.
func TestMetricsExactCounters(t *testing.T) {
	ps := mkPackets(7, 5000, 64, 10) // every 10th packet invalid
	// Run is the one serial engine; the subtest keeps its historic name.
	t.Run("serial", func(t *testing.T) {
		reg := obs.NewRegistry()
		m := NewMetrics(reg)
		stats, err := Run(NewSliceSource(ps), PipelineConfig{NV: 1000, Metrics: m}, &ResultCollector{})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.PacketsValid.Value(); got != stats.ValidPackets {
			t.Errorf("valid counter = %d, stats %d", got, stats.ValidPackets)
		}
		if got := m.PacketsInvalid.Value(); got != stats.InvalidPackets {
			t.Errorf("invalid counter = %d, stats %d", got, stats.InvalidPackets)
		}
		if got := m.Windows.Value(); got != int64(stats.Windows) {
			t.Errorf("windows counter = %d, stats %d", got, stats.Windows)
		}
		if got := m.TailDiscarded.Value(); got != stats.DiscardedTail {
			t.Errorf("tail counter = %d, stats %d", got, stats.DiscardedTail)
		}
		if stats.ValidPackets != 4500 || stats.Windows != 4 {
			t.Errorf("unexpected stats %+v (trace should give 4500 valid, 4 windows)", stats)
		}
		if got := testenv.Metric(t, reg.Snapshot(), "palu_stream_window_close_spans_total").Value; got != int64(stats.Windows) {
			t.Errorf("window close spans = %d, want %d", got, stats.Windows)
		}
		if got := testenv.Metric(t, reg.Snapshot(), "palu_stream_sink_spans_total").Value; got != int64(stats.Windows) {
			t.Errorf("sink spans = %d, want %d", got, stats.Windows)
		}
	})
}

// TestMetricsKeySetIdenticalAcrossEngines pins that the deprecated
// PipelineConfig.Workers field is inert: runs at Workers 1, 2 and 4
// leave snapshots with the same metric names and, instrument by
// instrument, the same counter and gauge values and the same timer
// observation counts. Only the timers' durations may differ.
func TestMetricsKeySetIdenticalAcrossEngines(t *testing.T) {
	ps := mkPackets(3, 2000, 32, 0)
	var base obs.Snapshot
	for i, workers := range []int{1, 2, 4} {
		reg := obs.NewRegistry()
		_, err := Run(NewSliceSource(ps), PipelineConfig{
			NV: 500, Workers: workers, Metrics: NewMetrics(reg),
		}, &ResultCollector{})
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if i == 0 {
			base = snap
			continue
		}
		if got, want := testenv.MetricNames(snap), testenv.MetricNames(base); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: metric key set %v, want %v", workers, got, want)
		}
		for j, m := range snap.Metrics {
			b := base.Metrics[j]
			if m.Type != b.Type || m.Value != b.Value || m.Count != b.Count {
				t.Errorf("workers=%d: %s = %s value %d count %d, workers=1 %s value %d count %d",
					workers, m.Name, m.Type, m.Value, m.Count, b.Type, b.Value, b.Count)
			}
		}
	}
}

// TestMetricsSharedRegistryAggregates pins get-or-create aggregation:
// two runs against one registry sum their counters.
func TestMetricsSharedRegistryAggregates(t *testing.T) {
	ps := mkPackets(5, 1000, 32, 0)
	reg := obs.NewRegistry()
	for i := 0; i < 2; i++ {
		m := NewMetrics(reg)
		if _, err := Run(NewSliceSource(ps), PipelineConfig{NV: 500, Metrics: m},
			&ResultCollector{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := NewMetrics(reg).Windows.Value(); got != 4 {
		t.Errorf("aggregated windows = %d, want 4 (2 runs x 2 windows)", got)
	}
}

// TestMetricsNilIsInert pins that a nil Metrics config runs the
// uninstrumented path unchanged.
func TestMetricsNilIsInert(t *testing.T) {
	ps := mkPackets(9, 1000, 32, 0)
	stats, err := Run(NewSliceSource(ps), PipelineConfig{NV: 250}, &ResultCollector{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 4 {
		t.Fatalf("windows = %d, want 4", stats.Windows)
	}
}
