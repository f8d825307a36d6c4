package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hybridplaw/internal/netgen"
	"hybridplaw/internal/spmat"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/tracestore"
)

// cacheCfg is the pipeline geometry for a direct WindowCache.Stream call
// (Context.Stream normally fills these from the requirement).
func cacheCfg(req WindowReq) stream.PipelineConfig {
	return stream.PipelineConfig{NV: req.NV, MaxWindows: req.Windows}
}

// TestWindowCacheTornArchive: a truncated but otherwise genuine archive
// (e.g. a crash mid-download or a torn copy) must be detected and
// re-recorded, never replayed short.
func TestWindowCacheTornArchive(t *testing.T) {
	c, err := NewWindowCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := WindowReq{Site: testSite(41), NV: 1000, Windows: 2}
	first, err := c.Stream(req, cacheCfg(req), stream.FuncSink(func(*stream.WindowResult) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}

	// Tear the archive: keep the header and some blocks, drop the tail
	// (which holds later blocks plus the index/footer).
	path := c.path(req.Key())
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	second, err := c.Stream(req, cacheCfg(req), stream.FuncSink(func(*stream.WindowResult) error { return nil }))
	if err != nil {
		t.Fatalf("torn archive not recovered: %v", err)
	}
	cs := c.Stats()
	if cs.Misses != 2 || cs.Hits != 0 {
		t.Errorf("hits=%d misses=%d, want 0/2 (torn file re-recorded)", cs.Hits, cs.Misses)
	}
	if first != second {
		t.Errorf("re-recorded replay diverges: %+v vs %+v", second, first)
	}
}

// TestWindowCacheWrongValidPackets: an archive that is structurally
// valid PTRC but carries the wrong packet count for its key (a
// collision, a renamed file, or a requirement change) is re-recorded.
func TestWindowCacheWrongValidPackets(t *testing.T) {
	c, err := NewWindowCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := WindowReq{Site: testSite(43), NV: 1000, Windows: 2}

	// Plant a genuine archive holding only half the packets req needs.
	site, err := netgen.NewSite(req.Site)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(c.path(req.Key()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracestore.Record(f, stream.TakeValid(site.PacketSource(), req.ValidPackets()/2),
		tracestore.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	stats, err := c.Stream(req, cacheCfg(req), stream.FuncSink(func(*stream.WindowResult) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	cs := c.Stats()
	if cs.Misses != 1 || cs.Hits != 0 {
		t.Errorf("hits=%d misses=%d, want 0/1 (short archive re-recorded)", cs.Hits, cs.Misses)
	}
	if stats.ValidPackets != req.ValidPackets() {
		t.Errorf("replayed %d valid packets, want %d", stats.ValidPackets, req.ValidPackets())
	}
	if stats.Windows != req.Windows {
		t.Errorf("replayed %d windows, want %d", stats.Windows, req.Windows)
	}
}

// TestWindowCacheConcurrentEnsure: concurrent requests for one key are
// single-flighted — exactly one records, everyone else replays the same
// archive. Meaningful under -race (CI runs this package with it).
func TestWindowCacheConcurrentEnsure(t *testing.T) {
	c, err := NewWindowCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := WindowReq{Site: testSite(47), NV: 1000, Windows: 1}
	const n = 8
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		stats []stream.PipelineStats
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := c.Stream(req, cacheCfg(req), stream.FuncSink(func(*stream.WindowResult) error { return nil }))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			stats = append(stats, s)
			mu.Unlock()
		}()
	}
	wg.Wait()
	cs := c.Stats()
	if cs.Misses != 1 || cs.Hits != n-1 {
		t.Errorf("hits=%d misses=%d, want %d/1 (single-flight)", cs.Hits, cs.Misses, n-1)
	}
	if len(stats) != n {
		t.Fatalf("only %d/%d replays succeeded", len(stats), n)
	}
	for i, s := range stats {
		if s != stats[0] {
			t.Errorf("replay %d diverges: %+v vs %+v", i, s, stats[0])
		}
	}
	if cs.DeliveredWindows != n*int64(req.Windows) {
		t.Errorf("delivered windows = %d, want %d", cs.DeliveredWindows, n*int64(req.Windows))
	}
}

// TestWindowCacheSameKeyDifferentGeometry: two requirements cutting the
// same packet prefix into different windows share one archive — the
// cache records the prefix once — and each consumer still gets its own
// window cut.
func TestWindowCacheSameKeyDifferentGeometry(t *testing.T) {
	site := testSite(53)
	wide := WindowReq{Site: site, NV: 2000, Windows: 1}
	narrow := WindowReq{Site: site, NV: 1000, Windows: 2}
	if wide.Key() != narrow.Key() {
		t.Fatal("test premise broken: keys differ")
	}
	var sw, sn stream.PipelineStats
	reg := NewRegistry()
	register(t, reg, windowScenario("wide", wide, &sw))
	register(t, reg, windowScenario("narrow", narrow, &sn))
	eng, err := NewEngine(reg, Config{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1 (one archive, two replays)", cs.Hits, cs.Misses)
	}
	if sw.Windows != 1 || sn.Windows != 2 {
		t.Errorf("windows = %d/%d, want 1/2", sw.Windows, sn.Windows)
	}
}

// TestWindowCacheStreamBudgets pins the cache's one replay path: a cached
// window, replayed by the call that records it and again from the warm
// archive, delivers window aggregates and ensemble histograms identical
// to uncached generation through Context.Stream. A DEFLATE archive at
// the key's path — recorded for this very requirement by a writer that
// still had the codec — is a miss: it is re-recorded and the replays
// match too.
func TestWindowCacheStreamBudgets(t *testing.T) {
	req := WindowReq{Site: testSite(59), NV: 1500, Windows: 3}
	type replay struct {
		aggs []spmat.Aggregates
		ens  *stream.EnsembleSink
	}
	collect := func(run func(...stream.Sink) (stream.PipelineStats, error)) replay {
		t.Helper()
		r := replay{ens: stream.NewEnsembleSink()}
		aggs := stream.FuncSink(func(res *stream.WindowResult) error {
			r.aggs = append(r.aggs, res.Aggregates)
			return nil
		})
		stats, err := run(aggs, r.ens)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Windows != req.Windows {
			t.Fatalf("windows = %d, want %d", stats.Windows, req.Windows)
		}
		return r
	}
	direct := collect(func(sinks ...stream.Sink) (stream.PipelineStats, error) {
		return (&Context{}).Stream(req, stream.PipelineConfig{}, sinks...)
	})
	check := func(name string, c *WindowCache) {
		t.Helper()
		for i := 1; i <= 2; i++ {
			got := collect(func(sinks ...stream.Sink) (stream.PipelineStats, error) {
				return c.Stream(req, cacheCfg(req), sinks...)
			})
			if !reflect.DeepEqual(got.aggs, direct.aggs) {
				t.Errorf("%s cache, replay %d: aggregates %v, uncached %v", name, i, got.aggs, direct.aggs)
			}
			if !reflect.DeepEqual(got.ens, direct.ens) {
				t.Errorf("%s cache, replay %d: ensemble histograms diverge from uncached", name, i)
			}
		}
		if cs := c.Stats(); cs.Misses != 1 || cs.Hits != 1 {
			t.Errorf("%s cache: hits=%d misses=%d, want 1/1", name, cs.Hits, cs.Misses)
		}
		if info, err := tracestore.InfoFile(c.path(req.Key())); err != nil || info.ValidPackets != req.ValidPackets() {
			t.Errorf("%s cache: entry holds %d valid packets (err %v), want %d", name, info.ValidPackets, err, req.ValidPackets())
		}
	}

	fresh, err := NewWindowCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	check("fresh", fresh)

	legacy, err := NewWindowCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-deflate-window.ptrc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy.path(req.Key()), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tracestore.InfoFile(legacy.path(req.Key())); !errors.Is(err, tracestore.ErrCorrupt) {
		t.Fatalf("DEFLATE entry reads as %v, want a corruption error", err)
	}
	check("DEFLATE", legacy)
}
