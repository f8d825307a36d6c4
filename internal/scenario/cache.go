package scenario

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"hybridplaw/internal/netgen"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/tracestore"
)

// CacheStats summarizes window-cache traffic over an engine run.
type CacheStats struct {
	// Hits counts window requirements satisfied by an existing archive.
	Hits int64
	// Misses counts requirements that had to be generated and recorded.
	Misses int64
	// RecordedPackets is the total packets (valid + invalid) archived on
	// misses.
	RecordedPackets int64
	// ReplayedPackets is the total packets replayed out of archives into
	// the pipeline, as counted by PipelineStats.SourcePacketsRead.
	ReplayedPackets int64
	// DeliveredWindows counts windows delivered to consumers, once per
	// replay: every Stream call is one consumer's own replay.
	DeliveredWindows int64
	// ReplaysSaved is always 0: every consumer replays its own windows.
	// It is kept because the whole-suite benchmark (perfbench) reads it
	// from the serialized stats.
	ReplaysSaved int64
}

// WindowCache is the content-addressed PTRC trace cache: each WindowReq
// maps to one archive file <key>.ptrc under dir, recorded on first use
// from the synthetic observatory (exactly the TakeValid prefix the
// pipeline would consume) and replayed through stream.Run by every use —
// including the recording one, so cached and uncached runs exercise the
// identical replay path. Archives are recorded by the serial writer and
// replayed through the sequential reader; every consumer replays its
// windows itself, so replay cost counts once per consumer (DESIGN.md
// §14). An entry the index cannot vouch for — torn, stale, or recorded
// with the removed DEFLATE codec — is a miss and is re-recorded.
// Concurrent requests for one key are single-flighted; distinct keys
// record and replay independently.
type WindowCache struct {
	dir string
	m   *Metrics // engine's bundle (nil = stripped); mirrors the atomics

	mu    sync.Mutex
	locks map[string]*sync.Mutex

	hits      atomic.Int64
	misses    atomic.Int64
	recorded  atomic.Int64
	replayed  atomic.Int64
	delivered atomic.Int64
}

// NewWindowCache opens (creating if needed) a cache rooted at dir.
func NewWindowCache(dir string) (*WindowCache, error) {
	if dir == "" {
		return nil, errors.New("scenario: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: creating cache directory: %w", err)
	}
	return &WindowCache{dir: dir, locks: make(map[string]*sync.Mutex)}, nil
}

// Stats returns a snapshot of the cache counters.
func (c *WindowCache) Stats() CacheStats {
	return CacheStats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		RecordedPackets:  c.recorded.Load(),
		ReplayedPackets:  c.replayed.Load(),
		DeliveredWindows: c.delivered.Load(),
	}
}

// keyLock returns the single-flight mutex for one cache key.
func (c *WindowCache) keyLock(key string) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.locks[key]
	if !ok {
		l = &sync.Mutex{}
		c.locks[key] = l
	}
	return l
}

// path returns the archive location of a key.
func (c *WindowCache) path(key string) string {
	return filepath.Join(c.dir, key+".ptrc")
}

// ensure returns the archive path for req, recording the trace on a
// miss. An existing archive whose index is unreadable (a torn file, or
// DEFLATE blocks) or does not account for exactly the required
// valid-packet prefix (a stale file) is re-recorded.
func (c *WindowCache) ensure(req WindowReq) (string, error) {
	key := req.Key()
	lock := c.keyLock(key)
	lock.Lock()
	defer lock.Unlock()

	path := c.path(key)
	if info, err := tracestore.InfoFile(path); err == nil && info.ValidPackets == req.ValidPackets() {
		c.hits.Add(1)
		c.m.cacheHit()
		return path, nil
	}
	c.misses.Add(1)
	c.m.cacheMiss()

	site, err := netgen.NewSite(req.Site)
	if err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp-*")
	if err != nil {
		return "", fmt.Errorf("scenario: creating cache entry: %w", err)
	}
	n, err := tracestore.Record(tmp, stream.TakeValid(site.PacketSource(), req.ValidPackets()),
		tracestore.WriterOptions{Metrics: c.m.traceMetrics()})
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("scenario: recording window %s: %w", key, err)
	}
	c.recorded.Add(n)
	c.m.cacheRecorded(n)
	return path, nil
}

// Stream satisfies req through the cache: it ensures the archive exists
// (recording on first use) and replays it through the streaming
// pipeline. cfg.NV and cfg.MaxWindows must already carry the
// requirement's window geometry. Replay goes through the sequential
// reader, whose packed blocks the pipeline decodes straight into its
// window on the calling goroutine.
func (c *WindowCache) Stream(req WindowReq, cfg stream.PipelineConfig, sinks ...stream.Sink) (stream.PipelineStats, error) {
	path, err := c.ensure(req)
	if err != nil {
		return stream.PipelineStats{}, err
	}
	f, err := os.Open(path)
	if err != nil {
		return stream.PipelineStats{}, fmt.Errorf("scenario: opening cached window: %w", err)
	}
	defer f.Close()
	src, err := tracestore.NewReader(f)
	if err != nil {
		return stream.PipelineStats{}, err
	}
	src.SetMetrics(c.m.traceMetrics())
	stats, err := stream.Run(src, cfg, sinks...)
	if stats.SourcePacketsRead > 0 {
		c.replayed.Add(stats.SourcePacketsRead)
		c.m.cacheReplayed(stats.SourcePacketsRead)
	}
	// One Stream call is one consumer's delivery.
	if stats.Windows > 0 {
		c.delivered.Add(int64(stats.Windows))
	}
	if err != nil {
		return stats, err
	}
	if stats.Windows != cfg.MaxWindows {
		return stats, fmt.Errorf("scenario: cached window %s replayed %d windows, need %d (corrupt or stale archive?)",
			req.Key(), stats.Windows, cfg.MaxWindows)
	}
	return stats, nil
}
