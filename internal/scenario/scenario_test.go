package scenario

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/stream"
)

// textResult is a trivial Result for synthetic scenarios.
type textResult string

func (r textResult) Summary() string { return string(r) + "\n" }

// register adds s to reg, failing t when the registry refuses it.
func register(t testing.TB, reg *Registry, s Scenario) {
	t.Helper()
	if err := reg.Register(s); err != nil {
		t.Fatal(err)
	}
}

// okScenario returns a minimal passing scenario.
func okScenario(name string) Scenario {
	return Scenario{
		Name:  name,
		Title: "title " + name,
		Run: func(*Context) (Result, error) {
			return textResult(name), nil
		},
	}
}

func testSite(seed uint64) netgen.SiteConfig {
	params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		panic(err)
	}
	return netgen.SiteConfig{
		Name: "scenario-test", Params: params, Nodes: 3000, P: 0.5,
		WeightAlpha: 2.1, WeightDelta: 0, MaxWeight: 64,
		InvalidFraction: 0.02, Seed: seed,
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(okScenario("a")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(okScenario("a")); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := reg.Register(Scenario{Name: "bad name", Title: "t", Run: okScenario("x").Run}); err == nil {
		t.Error("name with space accepted")
	}
	if err := reg.Register(Scenario{Name: "norun", Title: "t"}); err == nil {
		t.Error("nil Run accepted")
	}
	b := okScenario("b")
	b.Outputs = []string{"artifact.csv"}
	if err := reg.Register(b); err != nil {
		t.Fatal(err)
	}
	c := okScenario("c")
	c.Outputs = []string{"artifact.csv"}
	if err := reg.Register(c); err == nil {
		t.Error("duplicate output artifact accepted")
	}
}

func TestRegistrySelect(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"table1", "fig3/a", "fig3/b", "fig4/x"} {
		if err := reg.Register(okScenario(name)); err != nil {
			t.Fatal(err)
		}
	}
	all, err := reg.Select()
	if err != nil || len(all) != 4 {
		t.Fatalf("Select() = %v, %v", all, err)
	}
	got, err := reg.Select("fig3", "table1")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"table1", "fig3/a", "fig3/b"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Select(fig3, table1) = %v, want %v (registration order)", got, want)
	}
	if _, err := reg.Select("nope"); err == nil {
		t.Error("unknown token accepted")
	}
}

// TestSchedulerPanicIsolation: a panicking scenario becomes a report
// error, not a crashed suite.
func TestSchedulerPanicIsolation(t *testing.T) {
	reg := NewRegistry()
	register(t, reg, Scenario{
		Name: "p", Title: "p",
		Run: func(*Context) (Result, error) { panic("kaboom") },
	})
	register(t, reg, okScenario("q"))
	eng, err := NewEngine(reg, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic not surfaced: %v", err)
	}
	if reports[1].Err != nil {
		t.Errorf("sibling scenario failed: %v", reports[1].Err)
	}
}

// TestParallelOverlap proves Workers >= 2 actually runs scenarios
// concurrently using a rendezvous (two scenarios that each wait for the
// other to start), which is deterministic even on a 1-CPU container —
// goroutine scheduling, not core count, is what the engine provides.
// The CPU-bound speedup floor is TestEngineParallelSpeedup's, in
// internal/testenv.
func TestParallelOverlap(t *testing.T) {
	reg := NewRegistry()
	var started [2]chan struct{}
	for i := range started {
		started[i] = make(chan struct{})
	}
	meet := func(self, other int) func(*Context) (Result, error) {
		return func(*Context) (Result, error) {
			close(started[self])
			select {
			case <-started[other]:
				return textResult("met"), nil
			case <-time.After(5 * time.Second):
				return nil, errors.New("rendezvous timeout: no overlap")
			}
		}
	}
	register(t, reg, Scenario{Name: "left", Title: "l", Run: meet(0, 1)})
	register(t, reg, Scenario{Name: "right", Title: "r", Run: meet(1, 0)})
	eng, err := NewEngine(reg, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSerialNoOverlap: Workers = 1 never runs two scenarios at once and
// runs them in registration order, whatever order they are named in; an
// unknown name fails the run.
// The serial suite's timings.csv and the whole-suite benchmark rely on
// that order.
func TestSerialNoOverlap(t *testing.T) {
	reg := NewRegistry()
	var inFlight, maxInFlight atomic.Int64
	var mu sync.Mutex
	var order []string
	registered := []string{"d", "b", "a", "c"}
	for _, name := range registered {
		register(t, reg, Scenario{
			Name: name, Title: "t",
			Run: func(*Context) (Result, error) {
				n := inFlight.Add(1)
				for {
					m := maxInFlight.Load()
					if n <= m || maxInFlight.CompareAndSwap(m, n) {
						break
					}
				}
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
				return textResult("x"), nil
			},
		})
	}
	eng, err := NewEngine(reg, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInFlight.Load() != 1 {
		t.Errorf("max concurrent scenarios = %d with Workers=1", maxInFlight.Load())
	}
	if fmt.Sprint(order) != fmt.Sprint(registered) {
		t.Errorf("execution order = %v, want registration order %v", order, registered)
	}
	order = nil
	if _, err := eng.Run("c", "a", "d", "c"); err != nil {
		t.Fatal(err)
	}
	if want := "[d a c]"; fmt.Sprint(order) != want {
		t.Errorf("Run(c, a, d, c) execution order = %v, want %s (registration order, once each)", order, want)
	}
	if _, err := eng.Run("a", "nope"); err == nil {
		t.Error("unknown scenario name accepted")
	}
}

func TestSummarizeDeterministic(t *testing.T) {
	reports := []Report{
		{Scenario: Scenario{Name: "a", Title: "Alpha"}, Result: textResult("line a")},
		{Scenario: Scenario{Name: "b", Title: "Beta"}, Err: errors.New("broke")},
	}
	got := Summarize(reports)
	want := "== Alpha ==\nline a\n\n== Beta ==\nFAILED: broke\n\n"
	if got != want {
		t.Errorf("Summarize = %q, want %q", got, want)
	}
}

// TestContextDeclarations: undeclared artifacts and undeclared windows
// are rejected; declared ones work.
func TestContextDeclarations(t *testing.T) {
	site := testSite(7)
	declared := WindowReq{Site: site, NV: 2000, Windows: 1}
	reg := NewRegistry()
	register(t, reg, Scenario{
		Name: "strict", Title: "s",
		Outputs: []string{"ok.txt"},
		Windows: []WindowReq{declared},
		Run: func(ctx *Context) (Result, error) {
			if err := ctx.WriteArtifact("undeclared.txt", func(io.Writer) error { return nil }); err == nil {
				return nil, errors.New("undeclared artifact accepted")
			}
			if _, err := ctx.Stream(WindowReq{Site: site, NV: 999, Windows: 1},
				stream.PipelineConfig{}, stream.FuncSink(func(*stream.WindowResult) error { return nil })); err == nil {
				return nil, errors.New("undeclared window accepted")
			}
			var windows int
			if _, err := ctx.Stream(declared, stream.PipelineConfig{},
				stream.FuncSink(func(*stream.WindowResult) error { windows++; return nil })); err != nil {
				return nil, err
			}
			if windows != 1 {
				return nil, fmt.Errorf("declared stream delivered %d windows", windows)
			}
			if err := ctx.WriteArtifact("ok.txt", func(w io.Writer) error {
				_, werr := io.WriteString(w, "ok")
				return werr
			}); err != nil {
				return nil, err
			}
			return textResult("done"), nil
		},
	})
	eng, err := NewEngine(reg, Config{Workers: 1, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStandaloneContext: Stream generates directly, WriteArtifact is
// unavailable.
func TestStandaloneContext(t *testing.T) {
	ctx := &Context{}
	var windows int
	stats, err := ctx.Stream(WindowReq{Site: testSite(3), NV: 1500, Windows: 2},
		stream.PipelineConfig{}, stream.FuncSink(func(*stream.WindowResult) error { windows++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if windows != 2 || stats.Windows != 2 {
		t.Errorf("windows = %d, stats.Windows = %d", windows, stats.Windows)
	}
	if err := ctx.WriteArtifact("x", func(io.Writer) error { return nil }); err == nil {
		t.Error("standalone artifact write accepted")
	}
}

// windowScenario streams one declared window and records the pipeline
// stats it observed.
func windowScenario(name string, req WindowReq, stats *stream.PipelineStats) Scenario {
	return Scenario{
		Name: name, Title: name, Windows: []WindowReq{req},
		Run: func(ctx *Context) (Result, error) {
			s, err := ctx.Stream(req, stream.PipelineConfig{},
				stream.FuncSink(func(*stream.WindowResult) error { return nil }))
			if err != nil {
				return nil, err
			}
			*stats = s
			return textResult(name), nil
		},
	}
}

// TestWindowCacheRecordThenReplay is the acceptance check for the PTRC
// window cache: the first engine run records each distinct window once
// (subsequent sharers replay within the run), and a second run over a
// warm cache replays everything — observed through the cache counters
// and PipelineStats.SourcePacketsRead.
func TestWindowCacheRecordThenReplay(t *testing.T) {
	cacheDir := t.TempDir()
	req := WindowReq{Site: testSite(11), NV: 2500, Windows: 2}
	run := func() (stream.PipelineStats, stream.PipelineStats, CacheStats) {
		var s1, s2 stream.PipelineStats
		reg := NewRegistry()
		register(t, reg, windowScenario("first", req, &s1))
		register(t, reg, windowScenario("second", req, &s2))
		eng, err := NewEngine(reg, Config{Workers: 4, CacheDir: cacheDir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return s1, s2, eng.CacheStats()
	}

	s1, s2, cold := run()
	if cold.Misses != 1 || cold.Hits != 1 {
		t.Errorf("cold run: hits=%d misses=%d, want 1/1 (shared window recorded once)",
			cold.Hits, cold.Misses)
	}
	if cold.RecordedPackets <= req.ValidPackets() {
		t.Errorf("recorded %d packets, want > %d (invalid fraction included)",
			cold.RecordedPackets, req.ValidPackets())
	}
	// Every consumer — including the recorder — replays from the archive:
	// SourcePacketsRead comes from the PTRC reader, not the generator.
	for i, s := range []stream.PipelineStats{s1, s2} {
		if s.SourcePacketsRead <= 0 {
			t.Errorf("scenario %d: SourcePacketsRead = %d, want > 0 (PTRC replay)",
				i, s.SourcePacketsRead)
		}
		if s.ValidPackets != req.ValidPackets() {
			t.Errorf("scenario %d: %d valid packets, want %d", i, s.ValidPackets, req.ValidPackets())
		}
	}

	w1, w2, warm := run()
	if warm.Misses != 0 || warm.Hits != 2 {
		t.Errorf("warm run: hits=%d misses=%d, want 2/0", warm.Hits, warm.Misses)
	}
	if warm.RecordedPackets != 0 {
		t.Errorf("warm run recorded %d packets, want 0", warm.RecordedPackets)
	}
	if warm.ReplayedPackets == 0 {
		t.Error("warm run replayed nothing")
	}
	// Replay must be stats-identical to the recording run.
	if w1 != s1 || w2 != s2 {
		t.Errorf("warm stats diverge: %+v vs %+v, %+v vs %+v", w1, s1, w2, s2)
	}
}

// TestWindowCacheStaleArchive: a cache file that does not account for
// the requirement is re-recorded, not silently replayed short.
func TestWindowCacheStaleArchive(t *testing.T) {
	cacheDir := t.TempDir()
	req := WindowReq{Site: testSite(13), NV: 1000, Windows: 1}
	// Plant garbage at the key's path.
	if err := os.WriteFile(filepath.Join(cacheDir, req.Key()+".ptrc"),
		[]byte("not a ptrc archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	var s stream.PipelineStats
	reg := NewRegistry()
	register(t, reg, windowScenario("w", req, &s))
	eng, err := NewEngine(reg, Config{Workers: 1, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	cs := eng.CacheStats()
	if cs.Misses != 1 || cs.Hits != 0 {
		t.Errorf("hits=%d misses=%d, want 0/1 (garbage re-recorded)", cs.Hits, cs.Misses)
	}
	if s.ValidPackets != req.ValidPackets() {
		t.Errorf("valid packets = %d, want %d", s.ValidPackets, req.ValidPackets())
	}
}

// TestWindowShareFailureDoesNotSkipSharers: sharing a window is not a
// data dependency — a scenario that fails before streaming must not
// skip the scenarios that merely share its window (they record or
// replay on demand through the cache's single-flight).
func TestWindowShareFailureDoesNotSkipSharers(t *testing.T) {
	req := WindowReq{Site: testSite(23), NV: 1000, Windows: 1}
	reg := NewRegistry()
	register(t, reg, Scenario{
		Name: "flaky", Title: "f", Windows: []WindowReq{req},
		Run: func(*Context) (Result, error) {
			return nil, errors.New("analysis failed before streaming")
		},
	})
	var s stream.PipelineStats
	register(t, reg, windowScenario("sharer", req, &s))
	eng, err := NewEngine(reg, Config{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := eng.Run()
	if err == nil {
		t.Fatal("flaky scenario's error not surfaced")
	}
	if reports[1].Err != nil {
		t.Errorf("window sharer skipped on unrelated failure: %v", reports[1].Err)
	}
	if s.ValidPackets != req.ValidPackets() {
		t.Errorf("sharer streamed %d valid packets, want %d", s.ValidPackets, req.ValidPackets())
	}
}

// TestCachedMatchesDirect pins the engine-level equivalence behind the
// byte-identical acceptance criterion: the same scenario streamed with
// and without the window cache produces identical window reductions.
func TestCachedMatchesDirect(t *testing.T) {
	req := WindowReq{Site: testSite(17), NV: 2000, Windows: 3}
	collect := func(cacheDir string) []string {
		var got []string
		reg := NewRegistry()
		register(t, reg, Scenario{
			Name: "w", Title: "w", Windows: []WindowReq{req},
			Run: func(ctx *Context) (Result, error) {
				_, err := ctx.Stream(req, stream.PipelineConfig{},
					stream.FuncSink(func(res *stream.WindowResult) error {
						got = append(got, fmt.Sprintf("%d:%+v:%d", res.T, res.Aggregates,
							res.Hists[stream.SourcePackets].MaxDegree()))
						return nil
					}))
				return textResult("w"), err
			},
		})
		eng, err := NewEngine(reg, Config{Workers: 1, CacheDir: cacheDir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	direct := collect("")
	cached := collect(t.TempDir())
	if len(direct) != 3 {
		t.Fatalf("windows = %d", len(direct))
	}
	if fmt.Sprint(direct) != fmt.Sprint(cached) {
		t.Errorf("cached replay diverges from direct generation:\n%v\n%v", direct, cached)
	}
}
