package stream

import (
	"testing"

	"hybridplaw/internal/obs"
)

// TestMetricsExactCounters pins the deterministic counters: packets,
// windows and tail must exactly match PipelineStats for both engines,
// and stay equal across worker counts.
func TestMetricsExactCounters(t *testing.T) {
	ps := mkPackets(7, 5000, 64, 10) // every 10th packet invalid
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 2},
		{"workers4", 4},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			m := NewMetrics(obs.NewRegistry())
			stats, err := Run(NewSliceSource(ps), PipelineConfig{
				NV: 1000, Workers: cfg.workers, Metrics: m,
			}, &ResultCollector{})
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
			// Stage timers saw work: window close spans once per window
			// in both engines; sink spans once per delivered window.
			if got := m.WindowCloseTime.Spans(); got != int64(stats.Windows) {
				t.Errorf("window close spans = %d, want %d", got, stats.Windows)
			}
			if got := m.SinkTime.Spans(); got != int64(stats.Windows) {
				t.Errorf("sink spans = %d, want %d", got, stats.Windows)
			}
			// In-flight depth settles to zero after the run.
			if got := m.QueueWindows.Value(); got != 0 {
				t.Errorf("queue gauge = %d after run, want 0", got)
			}
		})
	}
}

// TestMetricsKeySetIdenticalAcrossEngines pins the snapshot-equivalence
// contract: the registered metric names are identical whatever the
// worker count, because NewMetrics registers everything
// eagerly.
func TestMetricsKeySetIdenticalAcrossEngines(t *testing.T) {
	ps := mkPackets(3, 2000, 32, 0)
	var names []string
	for _, workers := range []int{1, 2} {
		reg := obs.NewRegistry()
		_, err := Run(NewSliceSource(ps), PipelineConfig{
			NV: 500, Workers: workers, Metrics: NewMetrics(reg),
		}, &ResultCollector{})
		if err != nil {
			t.Fatal(err)
		}
		got := reg.Snapshot().Names()
		if names == nil {
			names = got
			continue
		}
		if len(got) != len(names) {
			t.Fatalf("metric key set differs: %v vs %v", got, names)
		}
		for i := range names {
			if got[i] != names[i] {
				t.Fatalf("metric key set differs at %d: %q vs %q", i, got[i], names[i])
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
		if _, err := Run(NewSliceSource(ps), PipelineConfig{NV: 500, Workers: 1, Metrics: m},
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
	var m *Metrics
	if m.Registry() != nil {
		t.Fatal("nil bundle should have nil registry")
	}
	stats, err := Run(NewSliceSource(ps), PipelineConfig{NV: 250, Workers: 2}, &ResultCollector{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 4 {
		t.Fatalf("windows = %d, want 4", stats.Windows)
	}
}
