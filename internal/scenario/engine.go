package scenario

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hybridplaw/internal/netgen"
	"hybridplaw/internal/obs"
	"hybridplaw/internal/plotio"
	"hybridplaw/internal/stream"
)

// Config configures an Engine.
type Config struct {
	// Workers bounds how many scenarios run concurrently; <= 0 selects
	// GOMAXPROCS, 1 runs the suite serially. It is the run's one width
	// control: each scenario's streaming pipeline runs on the scenario's
	// own goroutine.
	Workers int
	// OutDir is where Context.WriteArtifact renders artifact files;
	// created on demand. Empty forbids artifact writes.
	OutDir string
	// CacheDir enables the PTRC window cache rooted there. Empty disables
	// caching: every Context.Stream generates traffic directly.
	CacheDir string
	// Metrics, when non-nil, instruments the whole suite against that
	// registry: per-scenario spans and worker occupancy, window-cache
	// counters, and the stream/PTRC bundles injected into every inner
	// pipeline and archive codec (see NewMetrics). Nil strips
	// instrumentation.
	Metrics *obs.Registry
}

// Report is the outcome of one scenario run.
type Report struct {
	// Scenario echoes the descriptor.
	Scenario Scenario
	// Result is the typed result; nil when Err is set.
	Result Result
	// Err is the scenario's failure (an error or a recovered panic), or
	// nil.
	Err error
	// Start and Duration are the wall-clock start and run time.
	Start    time.Time
	Duration time.Duration
	// Artifacts lists the artifact files actually written.
	Artifacts []string
}

// Engine runs a registry's scenarios in registration order on a bounded
// worker pool.
type Engine struct {
	reg   *Registry
	cfg   Config
	cache *WindowCache
	m     *Metrics
}

// NewEngine validates the configuration and opens the window cache.
func NewEngine(reg *Registry, cfg Config) (*Engine, error) {
	if reg == nil {
		return nil, errors.New("scenario: nil registry")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{reg: reg, cfg: cfg}
	if cfg.Metrics != nil {
		e.m = NewMetrics(cfg.Metrics)
	}
	if cfg.CacheDir != "" {
		cache, err := NewWindowCache(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		cache.m = e.m
		e.cache = cache
	}
	return e, nil
}

// Metrics returns the engine's instrument bundle (nil when Config.
// Metrics was nil).
func (e *Engine) Metrics() *Metrics { return e.m }

// CacheStats snapshots the window-cache counters (zero when caching is
// disabled).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
}

// Run executes the named scenarios (all, when names is empty; a
// repeated name runs once) in registration order on a pool of
// min(Workers, n) goroutines, and returns one report per scenario in
// registration order. The scenarios are independent: each reads only
// its own declared windows, and scenarios sharing a window meet in the
// cache's single-flight, and scenarios sharing a finished value meet in
// the run's value memo (Memo), so any interleaving is correct. The first
// scenario error in registration order is returned, with every other
// report still populated; an unknown name fails the whole run.
func (e *Engine) Run(names ...string) ([]Report, error) {
	scens, err := e.resolve(names)
	if err != nil {
		return nil, err
	}
	n := len(scens)
	values := newMemo(e.m)
	reports := make([]Report, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(e.cfg.Workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				reports[i] = e.runOne(scens[i], values)
			}
		}()
	}
	for i := range scens {
		next <- i
	}
	close(next)
	wg.Wait()
	for i := range reports {
		if reports[i].Err != nil {
			return reports, fmt.Errorf("scenario %q: %w", reports[i].Scenario.Name, reports[i].Err)
		}
	}
	return reports, nil
}

// resolve returns the named scenarios in registration order.
func (e *Engine) resolve(names []string) ([]Scenario, error) {
	if len(names) == 0 {
		return e.reg.Scenarios(), nil
	}
	selected := make(map[string]bool, len(names))
	for _, name := range names {
		if _, ok := e.reg.Get(name); !ok {
			return nil, fmt.Errorf("scenario: unknown scenario %q", name)
		}
		selected[name] = true
	}
	var out []Scenario
	for _, s := range e.reg.Scenarios() {
		if selected[s.Name] {
			out = append(out, s)
		}
	}
	return out, nil
}

// runOne executes a single scenario with panic isolation; values is the
// run's memo.
func (e *Engine) runOne(s Scenario, values *memo) (rep Report) {
	rep.Scenario = s
	ctx := &Context{eng: e, scen: s, memo: values}
	rep.Start = time.Now()
	sp := e.m.runStart()
	defer func() {
		rep.Duration = time.Since(rep.Start)
		rep.Artifacts = ctx.writtenNames()
		if p := recover(); p != nil {
			rep.Result = nil
			rep.Err = fmt.Errorf("scenario %q panicked: %v", s.Name, p)
		}
		e.m.runEnd(sp, rep.Err != nil)
	}()
	rep.Result, rep.Err = s.Run(ctx)
	return rep
}

// Summarize renders reports into the deterministic suite summary
// (summary.txt): registration-ordered sections, no timings, failures
// recorded in place.
func Summarize(reports []Report) string {
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "== %s ==\n", r.Scenario.Title)
		if r.Err != nil {
			fmt.Fprintf(&b, "FAILED: %v\n", r.Err)
		} else if r.Result != nil {
			b.WriteString(r.Result.Summary())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Context is a scenario's handle onto the engine during Run: it enforces
// the scenario's declarations while providing streaming and artifact
// output.
type Context struct {
	eng  *Engine
	scen Scenario
	memo *memo // the run's value memo; nil standalone

	mu      sync.Mutex
	written []string
}

// Standalone returns a context detached from any engine: Stream
// generates traffic directly (no cache, no declaration checks) and
// WriteArtifact is unavailable. It backs RunFederationBackbone, which
// runs the backbone compute outside any engine.
func Standalone() *Context { return &Context{} }

func (c *Context) writtenNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.written...)
	sort.Strings(out)
	return out
}

// checkDeclared fails unless req matches a declared window of the
// running scenario (by cache key).
func (c *Context) checkDeclared(req WindowReq) error {
	key := req.Key()
	for _, w := range c.scen.Windows {
		if w.Key() == key {
			return nil
		}
	}
	return fmt.Errorf("scenario %q: window (site %q, %d×%d) not declared in Windows",
		c.scen.Name, req.Site.Name, req.Windows, req.NV)
}

// Stream runs the scenario's declared traffic window set through the
// streaming pipeline: cfg's window geometry (NV, MaxWindows) is taken
// from req, and the packets come from the window cache when the engine
// has one (recorded once, replayed thereafter) or from direct synthetic
// generation otherwise. Both paths deliver float-identical windows; a
// short replay (stale or truncated archive) is an error, never a
// silently truncated result.
func (c *Context) Stream(req WindowReq, cfg stream.PipelineConfig, sinks ...stream.Sink) (stream.PipelineStats, error) {
	if err := req.Validate(); err != nil {
		return stream.PipelineStats{}, err
	}
	cfg.NV, cfg.MaxWindows = req.NV, req.Windows
	if c.eng != nil {
		if err := c.checkDeclared(req); err != nil {
			return stream.PipelineStats{}, err
		}
		if cfg.Metrics == nil {
			cfg.Metrics = c.eng.m.streamMetrics()
		}
		if c.eng.cache != nil {
			return c.eng.cache.Stream(req, cfg, sinks...)
		}
	}
	site, err := netgen.NewSite(req.Site)
	if err != nil {
		return stream.PipelineStats{}, err
	}
	stats, err := stream.Run(site.PacketSource(), cfg, sinks...)
	if err != nil {
		return stats, err
	}
	if stats.Windows != req.Windows {
		return stats, fmt.Errorf("scenario: source delivered %d windows, need %d", stats.Windows, req.Windows)
	}
	return stats, nil
}

// WriteArtifact renders one declared output artifact into the engine's
// output directory. Writing an undeclared artifact is an error: Register
// rejects two scenarios declaring one artifact, and that guard holds
// only if the declarations are honest.
func (c *Context) WriteArtifact(name string, render func(io.Writer) error) error {
	if c.eng == nil {
		return errors.New("scenario: standalone context cannot write artifacts")
	}
	if c.eng.cfg.OutDir == "" {
		return fmt.Errorf("scenario %q: engine has no output directory", c.scen.Name)
	}
	declared := false
	for _, out := range c.scen.Outputs {
		if out == name {
			declared = true
			break
		}
	}
	if !declared {
		return fmt.Errorf("scenario %q: artifact %q not declared in Outputs", c.scen.Name, name)
	}
	if err := os.MkdirAll(c.eng.cfg.OutDir, 0o755); err != nil {
		return err
	}
	if err := plotio.WriteArtifact(c.eng.cfg.OutDir, name, render); err != nil {
		return err
	}
	c.mu.Lock()
	c.written = append(c.written, name)
	c.mu.Unlock()
	return nil
}
