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
	// GOMAXPROCS, 1 runs the suite serially. Each scenario's inner
	// streaming pipeline gets GOMAXPROCS divided by the scenarios that
	// can run at once, so a parallel suite does not oversubscribe the
	// machine.
	Workers int
	// OutDir is where Context.WriteArtifact renders artifact files;
	// created on demand. Empty forbids artifact writes.
	OutDir string
	// CacheDir enables the PTRC window cache rooted there. Empty disables
	// caching: every Context.Stream generates traffic directly.
	CacheDir string
	// Metrics, when non-nil, instruments the whole suite against that
	// registry: scheduler spans and occupancy, window-cache counters,
	// and the stream/PTRC bundles injected into every inner pipeline
	// and archive codec (see NewMetrics). Nil strips instrumentation.
	Metrics *obs.Registry
}

// Report is the outcome of one scheduled scenario.
type Report struct {
	// Scenario echoes the descriptor.
	Scenario Scenario
	// Result is the typed result; nil when Err is set.
	Result Result
	// Err is the scenario failure, a dependency-failure propagation, or
	// nil.
	Err error
	// Duration is the wall-clock run time (zero for skipped scenarios).
	Duration time.Duration
	// Artifacts lists the artifact files actually written.
	Artifacts []string
}

// Engine schedules a registry: independent scenarios run concurrently on
// a bounded worker pool; scenarios connected by declared artifacts or by
// a shared cached window run in topological order.
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

// pipelineBudget is the per-scenario inner worker budget for a plan of
// n scenarios: the machine divided by the scenarios that can actually
// run at once — min(Workers, n), not the configured pool size, so a
// small -only selection under a wide pool still gets full-width
// pipelines.
func (e *Engine) pipelineBudget(n int) int {
	concurrent := e.cfg.Workers
	if n < concurrent {
		concurrent = n
	}
	if concurrent < 1 {
		concurrent = 1
	}
	w := runtime.GOMAXPROCS(0) / concurrent
	if w < 1 {
		w = 1
	}
	return w
}

// edge is one outgoing dependency: hard edges carry real data flow
// (declared artifacts) and propagate failures; soft edges are
// ordering-only hints (shared cached windows — the cache's single-flight
// keeps correctness without them, they just schedule the recorder first).
type edge struct {
	to   int
	hard bool
}

// node is one scheduled scenario with its dependency wiring.
type node struct {
	s          Scenario
	indegree   int
	dependents []edge
	skip       error // set when a hard dependency failed; the node is not run
}

// Run executes the named scenarios (all, when names is empty) plus the
// transitive producers of their declared inputs, and returns one report
// per scenario in registration order. The first scenario error is
// returned (with every other report still populated); scheduling errors
// (unknown names, unknown inputs, dependency cycles) fail the whole run.
func (e *Engine) Run(names ...string) ([]Report, error) {
	nodes, err := e.plan(names)
	if err != nil {
		return nil, err
	}
	n := len(nodes)
	budget := e.pipelineBudget(n)
	var ready []int
	for i := range nodes {
		if nodes[i].indegree == 0 {
			ready = append(ready, i)
		}
	}
	type completion struct {
		i   int
		rep Report
	}
	done := make(chan completion)
	reports := make([]Report, n)
	running, completed := 0, 0
	for completed < n {
		for running < e.cfg.Workers && len(ready) > 0 {
			i := ready[0]
			ready = ready[1:]
			running++
			go func(i int, nd node) {
				if nd.skip != nil {
					done <- completion{i, Report{Scenario: nd.s, Err: nd.skip}}
					return
				}
				done <- completion{i, e.runOne(nd.s, budget)}
			}(i, nodes[i])
		}
		if running == 0 {
			var stuck []string
			for i := range nodes {
				if reports[i].Scenario.Name == "" {
					stuck = append(stuck, nodes[i].s.Name)
				}
			}
			return nil, fmt.Errorf("scenario: dependency cycle among %s", strings.Join(stuck, ", "))
		}
		c := <-done
		running--
		completed++
		reports[c.i] = c.rep
		for _, d := range nodes[c.i].dependents {
			nodes[d.to].indegree--
			if c.rep.Err != nil && d.hard && nodes[d.to].skip == nil {
				nodes[d.to].skip = fmt.Errorf("scenario: dependency %q failed: %w",
					nodes[c.i].s.Name, c.rep.Err)
			}
			if nodes[d.to].indegree == 0 {
				ready = append(ready, d.to)
			}
		}
		sort.Ints(ready)
	}
	var firstErr error
	for i := range reports {
		if reports[i].Err != nil {
			firstErr = fmt.Errorf("scenario %q: %w", reports[i].Scenario.Name, reports[i].Err)
			break
		}
	}
	return reports, firstErr
}

// plan resolves the selection to its input closure and builds the
// dependency graph: artifact producer → consumer edges always, plus
// record → replay edges between scenarios sharing a cached window key
// when the cache is enabled.
func (e *Engine) plan(names []string) ([]node, error) {
	if len(names) == 0 {
		names = e.reg.Names()
	}
	selected := make(map[string]bool)
	var queue []string
	for _, name := range names {
		if _, ok := e.reg.Get(name); !ok {
			return nil, fmt.Errorf("scenario: unknown scenario %q", name)
		}
		if !selected[name] {
			selected[name] = true
			queue = append(queue, name)
		}
	}
	// Close over declared inputs: selecting a consumer pulls in its
	// producers.
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		s, _ := e.reg.Get(name)
		for _, in := range s.Inputs {
			producer, ok := e.reg.Producer(in)
			if !ok {
				return nil, fmt.Errorf("scenario %q: input %q has no registered producer", name, in)
			}
			if !selected[producer] {
				selected[producer] = true
				queue = append(queue, producer)
			}
		}
	}

	var nodes []node
	index := make(map[string]int)
	for _, name := range e.reg.Names() {
		if selected[name] {
			s, _ := e.reg.Get(name)
			index[name] = len(nodes)
			nodes = append(nodes, node{s: s})
		}
	}
	type edgeKey [2]int
	hardness := make(map[edgeKey]bool)
	adj := make([][]int, len(nodes))
	addEdge := func(from, to int, hard bool) {
		if from == to {
			return
		}
		k := edgeKey{from, to}
		if prev, seen := hardness[k]; seen {
			hardness[k] = prev || hard
			return
		}
		hardness[k] = hard
		adj[from] = append(adj[from], to)
	}
	// reaches reports whether `to` is reachable from `from` over the
	// edges added so far.
	reaches := func(from, to int) bool {
		seen := make([]bool, len(nodes))
		stack := []int{from}
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if i == to {
				return true
			}
			if seen[i] {
				continue
			}
			seen[i] = true
			stack = append(stack, adj[i]...)
		}
		return false
	}
	for i := range nodes {
		for _, in := range nodes[i].s.Inputs {
			producer, _ := e.reg.Producer(in)
			addEdge(index[producer], i, true)
		}
	}
	if e.cache != nil {
		recorder := make(map[string]int) // window key -> first scenario needing it
		for i := range nodes {
			for _, w := range nodes[i].s.Windows {
				key := w.Key()
				first, ok := recorder[key]
				if !ok {
					recorder[key] = i
					continue
				}
				// Ordering-only hint: schedule the first sharer (the
				// recorder) before its replayers. Skipped when it would
				// close a cycle against the artifact edges — the cache
				// single-flights per key, so any execution order is
				// correct; this edge only keeps worker slots from
				// blocking on the recording lock.
				if !reaches(i, first) {
					addEdge(first, i, false)
				}
			}
		}
	}
	// Materialize deterministically (sorted edges, not map order).
	keys := make([]edgeKey, 0, len(hardness))
	for k := range hardness {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		nodes[k[0]].dependents = append(nodes[k[0]].dependents, edge{to: k[1], hard: hardness[k]})
		nodes[k[1]].indegree++
	}
	return nodes, nil
}

// runOne executes a single scenario with panic isolation. pipeWorkers
// is the scenario's inner worker budget.
func (e *Engine) runOne(s Scenario, pipeWorkers int) (rep Report) {
	rep.Scenario = s
	ctx := &Context{eng: e, scen: s, pipeWorkers: pipeWorkers}
	start := time.Now()
	sp := e.m.runStart()
	defer func() {
		rep.Duration = time.Since(start)
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
	eng         *Engine
	scen        Scenario
	pipeWorkers int // inner worker budget; 0 = full width (standalone)

	mu      sync.Mutex
	written []string
}

// Standalone returns a context detached from any engine: Stream
// generates traffic directly (no cache, no declaration checks, inner
// pipeline at full width) and WriteArtifact is unavailable. It backs the
// thin compatibility wrappers around the legacy Run* experiment
// functions.
func Standalone() *Context { return &Context{} }

func (c *Context) writtenNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.written...)
	sort.Strings(out)
	return out
}

// declared reports whether req matches a declared window of the running
// scenario (by cache key).
func (c *Context) declared(req WindowReq) bool {
	key := req.Key()
	for _, w := range c.scen.Windows {
		if w.Key() == key {
			return true
		}
	}
	return false
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
		if !c.declared(req) {
			return stream.PipelineStats{}, fmt.Errorf(
				"scenario %q: window (site %q, %d×%d) not declared in Windows",
				c.scen.Name, req.Site.Name, req.Windows, req.NV)
		}
		if cfg.Workers <= 0 {
			cfg.Workers = c.pipeWorkers
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
// output directory. Writing an undeclared artifact is an error: the
// declarations are the scheduler's dependency ground truth, so they must
// be honest.
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
