package scenario

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hybridplaw/internal/obs"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/testenv"
)

// TestEngineMetricsEndToEnd runs a cached suite with an instrumented
// engine and pins the whole-stack accounting: engine counters match
// the reports, cache counters mirror CacheStats exactly, and the
// injected stream/PTRC bundles saw the inner pipeline's work.
func TestEngineMetricsEndToEnd(t *testing.T) {
	req := WindowReq{Site: testSite(23), NV: 2000, Windows: 2}
	var s1, s2 stream.PipelineStats
	reg := NewRegistry()
	register(t, reg, windowScenario("first", req, &s1))
	register(t, reg, windowScenario("second", req, &s2))
	register(t, reg, Scenario{
		Name: "boom", Title: "boom",
		Run: func(*Context) (Result, error) { return nil, errors.New("synthetic failure") },
	})
	obsReg := obs.NewRegistry()
	eng, err := NewEngine(reg, Config{
		Workers: 2, CacheDir: t.TempDir(), Metrics: obsReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, runErr := eng.Run()
	if runErr == nil {
		t.Fatal("expected the synthetic failure to surface")
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	m := eng.m
	if m == nil {
		t.Fatal("instrumented engine has no Metrics")
	}
	if got := m.Runs.Value(); got != 3 {
		t.Errorf("runs counter = %d, want 3", got)
	}
	if got := m.Failures.Value(); got != 1 {
		t.Errorf("failures counter = %d, want 1", got)
	}
	if got := testenv.Metric(t, obsReg.Snapshot(), "palu_scenario_run_spans_total").Value; got != 3 {
		t.Errorf("run spans = %d, want 3", got)
	}
	if got := m.WorkersBusy.Value(); got != 0 {
		t.Errorf("busy gauge = %d after run, want 0", got)
	}
	cs := eng.CacheStats()
	if cs.Hits+cs.Misses == 0 {
		t.Fatal("cache saw no traffic")
	}
	if m.CacheHits.Value() != cs.Hits || m.CacheMisses.Value() != cs.Misses ||
		m.CacheRecordedPackets.Value() != cs.RecordedPackets ||
		m.CacheReplayedPackets.Value() != cs.ReplayedPackets {
		t.Errorf("cache mirror diverges from CacheStats %+v", cs)
	}
	// The injected bundles saw the inner pipelines: both scenarios
	// replay req through the cache, so the stream counters sum their
	// stats and the PTRC reader decoded every archived block at least
	// once per replay.
	wantValid := s1.ValidPackets + s2.ValidPackets
	if got := m.Stream.PacketsValid.Value(); got != wantValid {
		t.Errorf("stream valid counter = %d, want %d", got, wantValid)
	}
	if got := m.Stream.Windows.Value(); got != int64(s1.Windows+s2.Windows) {
		t.Errorf("stream windows counter = %d, want %d", got, s1.Windows+s2.Windows)
	}
	if m.Trace.BlocksWritten.Value() == 0 {
		t.Error("PTRC write counters saw no recording")
	}
	if m.Trace.BlocksRead.Value() == 0 {
		t.Error("PTRC read counters saw no replay")
	}
	// One snapshot covers the whole stack.
	snap := obsReg.Snapshot()
	for _, name := range []string{
		"palu_scenario_runs_total", "palu_stream_windows_total", "palu_ptrc_blocks_read_total",
		// The fit layer's instruments are registered though no fit ran.
		"palu_model_fit_zm_mle_ns", "palu_zipfmand_fit_ns", "palu_model_oracle_calls_total",
	} {
		testenv.Metric(t, snap, name)
	}
}

// TestTimingsCSV pins the timings.csv shape: header, one row per report
// in order, closing suite row carrying the wall time and cache counters.
func TestTimingsCSV(t *testing.T) {
	t0 := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	reports := []Report{
		{Scenario: Scenario{Name: "a"}, Start: t0, Duration: 1500 * time.Millisecond},
		{Scenario: Scenario{Name: "b"}, Start: t0.Add(1500 * time.Millisecond),
			Duration: 250 * time.Millisecond, Err: errors.New("x")},
	}
	got := Timings(reports, CacheStats{Hits: 3, Misses: 1})
	want := "scenario,status,seconds,cache_hits,cache_misses\n" +
		"a,ok,1.500,,\n" +
		"b,failed,0.250,,\n" +
		"suite,,1.750,3,1\n"
	if got != want {
		t.Errorf("timings mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !strings.HasSuffix(got, "\n") {
		t.Error("timings must end with a newline")
	}
}

// TestTimingsSuiteRowUnchanged guards the pinned timings.csv shape
// against the CacheStats fields it does not print.
func TestTimingsSuiteRowUnchanged(t *testing.T) {
	out := Timings(nil, CacheStats{Hits: 3, Misses: 1, DeliveredWindows: 4})
	if !strings.Contains(out, "suite,,0.000,3,1\n") {
		t.Errorf("suite row changed: %q", out)
	}
}

// TestTimingsSuiteRowIsWallSpan pins the suite row of a concurrent run
// to its wall-clock span, from the earliest start to the latest end,
// not to the sum of the overlapping scenario durations. Reports arrive
// in registration order, which need not be start order.
func TestTimingsSuiteRowIsWallSpan(t *testing.T) {
	t0 := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	reports := []Report{
		{Scenario: Scenario{Name: "a"}, Start: t0.Add(200 * time.Millisecond), Duration: 3 * time.Second},
		{Scenario: Scenario{Name: "b"}, Start: t0, Duration: 1 * time.Second},
		{Scenario: Scenario{Name: "c"}, Start: t0.Add(1 * time.Second), Duration: 1500 * time.Millisecond},
	}
	got := Timings(reports, CacheStats{Hits: 2})
	want := "scenario,status,seconds,cache_hits,cache_misses\n" +
		"a,ok,3.000,,\n" +
		"b,ok,1.000,,\n" +
		"c,ok,1.500,,\n" +
		"suite,,3.200,2,0\n"
	if got != want {
		t.Errorf("timings mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
