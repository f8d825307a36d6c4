package scenario

import (
	"fmt"
	"sync"
)

// memo is one engine run's single-flight value table (DESIGN.md §14).
// Like WindowCache.keyLock it hands out one entry per key under a short
// map lock: the first caller to take an entry's lock computes, every
// later caller waits on that lock and reads the stored outcome. It holds
// finished values only, never a live stream.
type memo struct {
	m *Metrics

	mu      sync.Mutex
	entries map[string]*memoEntry
}

// memoEntry is one key's outcome; done is set once it is computed,
// whether the compute returned, failed or panicked.
type memoEntry struct {
	mu   sync.Mutex
	done bool
	val  any
	err  error
}

func newMemo(m *Metrics) *memo {
	return &memo{m: m, entries: make(map[string]*memoEntry)}
}

// do returns key's outcome, computing it on first use. The caller that
// creates the entry counts as the miss; every other caller, whether the
// value is finished or still in flight, counts as a hit.
func (m *memo) do(key string, compute func() (any, error)) (any, error) {
	m.mu.Lock()
	e, hit := m.entries[key]
	if !hit {
		e = &memoEntry{}
		m.entries[key] = e
	}
	m.mu.Unlock()
	m.m.memoLookup(hit)

	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.fill(key, compute)
	}
	return e.val, e.err
}

// fill runs compute and stores its outcome. A panic is stored as an
// error, so every waiter sees a failure rather than a zero value.
func (e *memoEntry) fill(key string, compute func() (any, error)) {
	defer func() {
		if p := recover(); p != nil {
			e.val, e.err = nil, fmt.Errorf("scenario: computing %s panicked: %v", key, p)
		}
		e.done = true
	}()
	e.val, e.err = compute()
}

// Memo returns the value compute derives from req's windows, computing
// it at most once per Engine.Run: the first scenario to ask computes,
// and every later or concurrent request for the same key, from any
// scenario, shares that outcome, errors included (a panicking compute
// reaches every caller as an error). The key is req's window key and
// geometry plus name, so name must say everything else the value
// depends on (quantity, fitter list, ...); one key always holds one
// type. req must be declared by the running scenario; that is checked
// before the memo is read, so a hit cannot skip it. Callers share the
// value and must not modify it. Under a Standalone context Memo just
// computes.
func Memo[T any](c *Context, req WindowReq, name string, compute func() (T, error)) (T, error) {
	var zero T
	if c.eng == nil {
		return compute()
	}
	if err := c.checkDeclared(req); err != nil {
		return zero, err
	}
	key := fmt.Sprintf("%s/%dx%d/%s", req.Key(), req.Windows, req.NV, name)
	v, err := c.memo.do(key, func() (any, error) { return compute() })
	if err != nil {
		return zero, err
	}
	return v.(T), nil
}
