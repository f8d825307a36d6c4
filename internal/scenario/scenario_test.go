package scenario

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/testenv"
)

// textResult is a trivial Result for synthetic scenarios.
type textResult string

func (r textResult) Summary() string { return string(r) + "\n" }

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

// TestSchedulerArtifactOrder wires a producer → consumer chain through a
// declared artifact and asserts the scheduler orders it even at full
// parallelism.
func TestSchedulerArtifactOrder(t *testing.T) {
	reg := NewRegistry()
	var order []string
	var mu sync.Mutex
	mark := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	producer := Scenario{
		Name: "producer", Title: "p", Outputs: []string{"data.csv"},
		Run: func(ctx *Context) (Result, error) {
			time.Sleep(20 * time.Millisecond) // give a broken scheduler time to misorder
			mark("producer")
			err := ctx.WriteArtifact("data.csv", func(w io.Writer) error {
				_, werr := io.WriteString(w, "x\n")
				return werr
			})
			return textResult("p"), err
		},
	}
	consumer := Scenario{
		Name: "consumer", Title: "c", Inputs: []string{"data.csv"},
		Run: func(ctx *Context) (Result, error) {
			mark("consumer")
			return textResult("c"), nil
		},
	}
	if err := reg.Register(consumer); err != nil { // consumer first: order must still hold
		t.Fatal(err)
	}
	if err := reg.Register(producer); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(reg, Config{Workers: 4, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	if fmt.Sprint(order) != "[producer consumer]" {
		t.Errorf("execution order = %v", order)
	}
	// Reports come back in registration order regardless of execution.
	if reports[0].Scenario.Name != "consumer" || reports[1].Scenario.Name != "producer" {
		t.Errorf("report order = %s, %s", reports[0].Scenario.Name, reports[1].Scenario.Name)
	}
	if len(reports[1].Artifacts) != 1 || reports[1].Artifacts[0] != "data.csv" {
		t.Errorf("producer artifacts = %v", reports[1].Artifacts)
	}
}

// TestSchedulerInputClosure: selecting only the consumer pulls in the
// producer of its declared input.
func TestSchedulerInputClosure(t *testing.T) {
	reg := NewRegistry()
	p := okScenario("p")
	p.Outputs = []string{"a.csv"}
	c := okScenario("c")
	c.Inputs = []string{"a.csv"}
	if err := reg.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(c); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(reg, Config{Workers: 1, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := eng.Run("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("closure selected %d scenarios, want 2", len(reports))
	}
}

func TestSchedulerUnknownInput(t *testing.T) {
	reg := NewRegistry()
	c := okScenario("c")
	c.Inputs = []string{"nowhere.csv"}
	if err := reg.Register(c); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(reg, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Error("unknown input did not fail the plan")
	}
}

func TestSchedulerCycle(t *testing.T) {
	reg := NewRegistry()
	a := okScenario("a")
	a.Outputs, a.Inputs = []string{"a.csv"}, []string{"b.csv"}
	b := okScenario("b")
	b.Outputs, b.Inputs = []string{"b.csv"}, []string{"a.csv"}
	if err := reg.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(b); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(reg, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

// TestSchedulerDependencyFailure: a failing producer skips its consumer
// but unrelated scenarios still run.
func TestSchedulerDependencyFailure(t *testing.T) {
	reg := NewRegistry()
	boom := errors.New("boom")
	p := Scenario{
		Name: "p", Title: "p", Outputs: []string{"a.csv"},
		Run: func(*Context) (Result, error) { return nil, boom },
	}
	c := okScenario("c")
	c.Inputs = []string{"a.csv"}
	other := okScenario("other")
	for _, s := range []Scenario{p, c, other} {
		if err := reg.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewEngine(reg, Config{Workers: 2, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := eng.Run()
	if err == nil {
		t.Fatal("suite error not reported")
	}
	byName := map[string]Report{}
	for _, r := range reports {
		byName[r.Scenario.Name] = r
	}
	if !errors.Is(byName["p"].Err, boom) {
		t.Errorf("producer error = %v", byName["p"].Err)
	}
	if byName["c"].Err == nil || !strings.Contains(byName["c"].Err.Error(), "dependency") {
		t.Errorf("consumer not skipped: %v", byName["c"].Err)
	}
	if byName["other"].Err != nil {
		t.Errorf("unrelated scenario failed: %v", byName["other"].Err)
	}
}

// TestSchedulerPanicIsolation: a panicking scenario becomes a report
// error, not a crashed suite.
func TestSchedulerPanicIsolation(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Scenario{
		Name: "p", Title: "p",
		Run: func(*Context) (Result, error) { panic("kaboom") },
	})
	reg.MustRegister(okScenario("q"))
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
// CPU-bound speedup floors are asserted only on >= 4 CPUs by
// TestEngineParallelSpeedup.
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
	reg.MustRegister(Scenario{Name: "left", Title: "l", Run: meet(0, 1)})
	reg.MustRegister(Scenario{Name: "right", Title: "r", Run: meet(1, 0)})
	eng, err := NewEngine(reg, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineParallelSpeedup is the hardware-aware acceptance check for
// the scheduler: a suite of CPU-bound scenarios must produce identical
// results serial and parallel on any machine, and must actually go
// faster wherever there are cores to go faster on — the floor scales
// with runtime.NumCPU() (1.3x at 2–3 CPUs, where it measured
// 1.65–2.04x) and degrades to the correctness check alone on one CPU,
// which cannot overlap CPU-bound work. The floor is asserted on the
// median of three serial/parallel pairs that no other process slowed
// (testenv.MedianSpeedup). A machine that stays busy for the whole wait
// gets the correctness check alone below 4 CPUs and is judged on every
// pair measured from 4 CPUs up.
func TestEngineParallelSpeedup(t *testing.T) {
	const scenarios = 4
	build := func() (*Registry, *[scenarios]string) {
		var results [scenarios]string
		reg := NewRegistry()
		for i := 0; i < scenarios; i++ {
			i := i
			reg.MustRegister(Scenario{
				Name: fmt.Sprintf("burn%d", i), Title: "burn",
				Run: func(*Context) (Result, error) {
					// Deterministic CPU-bound work (FNV-style mixing).
					h := uint64(i) + 0x9e3779b97f4a7c15
					for k := 0; k < 8_000_000; k++ {
						h ^= h >> 33
						h *= 0xff51afd7ed558ccd
					}
					results[i] = fmt.Sprintf("%016x", h)
					return textResult(results[i]), nil
				},
			})
		}
		return reg, &results
	}
	timed := func(workers int) (time.Duration, [scenarios]string) {
		reg, results := build()
		eng, err := NewEngine(reg, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start), *results
	}
	cpus := runtime.NumCPU()
	var want float64
	switch {
	case cpus >= 8:
		want = 2.5
	case cpus >= 4:
		want = 1.8
	case cpus >= 2:
		want = 1.3
	}
	// Every pair checks that parallel results equal serial ones.
	pair := func() float64 {
		serialTime, serialRes := timed(1)
		parallelTime, parallelRes := timed(scenarios)
		if serialRes != parallelRes {
			t.Fatalf("parallel results diverge from serial: %v vs %v", parallelRes, serialRes)
		}
		return float64(serialTime) / float64(parallelTime)
	}
	if want == 0 {
		pair()
		t.Logf("%d CPU: no overlap possible for CPU-bound scenarios; serial-correctness check only", cpus)
		return
	}
	speedup, uncontended := testenv.MedianSpeedup(t, 3, pair)
	if !uncontended && cpus < 4 {
		t.Logf("other processes held the CPUs throughout; median %.2fx not judged, serial-correctness check only", speedup)
		return
	}
	if speedup < want {
		t.Errorf("median parallel suite speedup %.2fx below the %.1fx floor for %d CPUs", speedup, want, cpus)
	}
}

// TestSerialNoOverlap: Workers = 1 never runs two scenarios at once.
func TestSerialNoOverlap(t *testing.T) {
	reg := NewRegistry()
	var inFlight, maxInFlight atomic.Int64
	for i := 0; i < 4; i++ {
		reg.MustRegister(Scenario{
			Name: fmt.Sprintf("s%d", i), Title: "t",
			Run: func(*Context) (Result, error) {
				n := inFlight.Add(1)
				for {
					m := maxInFlight.Load()
					if n <= m || maxInFlight.CompareAndSwap(m, n) {
						break
					}
				}
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
	reg.MustRegister(Scenario{
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
	ctx := Standalone()
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
		reg.MustRegister(windowScenario("first", req, &s1))
		reg.MustRegister(windowScenario("second", req, &s2))
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
	reg.MustRegister(windowScenario("w", req, &s))
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

// TestWindowEdgeDoesNotFightArtifactEdge: when the window-share hint
// (first registrant records) points opposite the artifact data flow, the
// artifact edge must win and the run must proceed — no spurious cycle.
func TestWindowEdgeDoesNotFightArtifactEdge(t *testing.T) {
	req := WindowReq{Site: testSite(19), NV: 1000, Windows: 1}
	var order []string
	var mu sync.Mutex
	streamAndMark := func(name string, outputs, inputs []string) Scenario {
		return Scenario{
			Name: name, Title: name, Outputs: outputs, Inputs: inputs,
			Windows: []WindowReq{req},
			Run: func(ctx *Context) (Result, error) {
				if _, err := ctx.Stream(req, stream.PipelineConfig{},
					stream.FuncSink(func(*stream.WindowResult) error { return nil })); err != nil {
					return nil, err
				}
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				for _, out := range outputs {
					if err := ctx.WriteArtifact(out, func(w io.Writer) error {
						_, werr := io.WriteString(w, name)
						return werr
					}); err != nil {
						return nil, err
					}
				}
				return textResult(name), nil
			},
		}
	}
	reg := NewRegistry()
	// Consumer registered FIRST: the window hint would pick it as
	// recorder, contradicting the artifact edge producer → consumer.
	reg.MustRegister(streamAndMark("consumer", nil, []string{"a.csv"}))
	reg.MustRegister(streamAndMark("producer", []string{"a.csv"}, nil))
	eng, err := NewEngine(reg, Config{Workers: 4, OutDir: t.TempDir(), CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("spurious cycle? %v", err)
	}
	if fmt.Sprint(order) != "[producer consumer]" {
		t.Errorf("execution order = %v, want artifact order", order)
	}
	cs := eng.CacheStats()
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1 (window still recorded once)", cs.Hits, cs.Misses)
	}
}

// TestWindowShareFailureDoesNotSkipSharers: window-share edges are
// ordering hints, not data dependencies — a failing recorder must not
// skip the scenarios that merely share its window (they record or
// replay on demand through the cache's single-flight).
func TestWindowShareFailureDoesNotSkipSharers(t *testing.T) {
	req := WindowReq{Site: testSite(23), NV: 1000, Windows: 1}
	reg := NewRegistry()
	reg.MustRegister(Scenario{
		Name: "flaky", Title: "f", Windows: []WindowReq{req},
		Run: func(*Context) (Result, error) {
			return nil, errors.New("analysis failed before streaming")
		},
	})
	var s stream.PipelineStats
	reg.MustRegister(windowScenario("sharer", req, &s))
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
		reg.MustRegister(Scenario{
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
