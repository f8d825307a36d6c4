package scenario

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridplaw/internal/obs"
	"hybridplaw/internal/stream"
)

// memoCallers is the number of goroutines that race for one key.
const memoCallers = 16

// raceKey has memoCallers goroutines request one key of a fresh memo at
// once and returns every caller's outcome and how often compute ran.
func raceKey(t *testing.T, compute func() (any, error)) ([]any, []error, int64) {
	t.Helper()
	m := newMemo(NewMetrics(obs.NewRegistry()))
	var runs atomic.Int64
	start := make(chan struct{})
	vals, errs := make([]any, memoCallers), make([]error, memoCallers)
	var wg sync.WaitGroup
	for i := 0; i < memoCallers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			vals[i], errs[i] = m.do("k", func() (any, error) {
				runs.Add(1)
				time.Sleep(5 * time.Millisecond) // keep the others in flight
				return compute()
			})
		}()
	}
	close(start)
	wg.Wait()
	if hits, misses := m.m.MemoHits.Value(), m.m.MemoMisses.Value(); hits != memoCallers-1 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", hits, misses, memoCallers-1)
	}
	return vals, errs, runs.Load()
}

// TestMemoSingleFlight: concurrent requests for one key compute once and
// every caller gets the same value.
func TestMemoSingleFlight(t *testing.T) {
	vals, errs, runs := raceKey(t, func() (any, error) { return new(int), nil })
	if runs != 1 {
		t.Fatalf("compute ran %d times, want 1", runs)
	}
	for i := range vals {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if vals[i] != vals[0] {
			t.Errorf("caller %d got %p, caller 0 got %p", i, vals[i], vals[0])
		}
	}
}

// TestMemoFailureReachesEveryCaller: a compute that errors or panics
// runs once and gives every caller an error, never a zero value.
func TestMemoFailureReachesEveryCaller(t *testing.T) {
	for _, tc := range []struct {
		name    string
		compute func() (any, error)
		want    string
	}{
		{"error", func() (any, error) { return nil, errors.New("synthetic failure") }, "synthetic failure"},
		{"panic", func() (any, error) { panic("synthetic panic") }, "panicked: synthetic panic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vals, errs, runs := raceKey(t, tc.compute)
			if runs != 1 {
				t.Errorf("compute ran %d times, want 1", runs)
			}
			for i := range errs {
				if errs[i] == nil || !strings.Contains(errs[i].Error(), tc.want) {
					t.Errorf("caller %d: err = %v, want %q", i, errs[i], tc.want)
				}
				if vals[i] != nil {
					t.Errorf("caller %d: value %v alongside the error", i, vals[i])
				}
			}
		})
	}
}

// TestMemoKeysIndependent: one key's compute does not block another's.
// a's compute finishes only after b's has, so a shared lock deadlocks.
func TestMemoKeysIndependent(t *testing.T) {
	m := newMemo(nil)
	bDone := make(chan struct{})
	aErr := make(chan error, 1)
	go func() {
		_, err := m.do("a", func() (any, error) {
			select {
			case <-bDone:
				return 1, nil
			case <-time.After(10 * time.Second):
				return nil, errors.New("b never finished while a was in flight")
			}
		})
		aErr <- err
	}()
	if _, err := m.do("b", func() (any, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	close(bDone)
	if err := <-aErr; err != nil {
		t.Fatal(err)
	}
}

// TestMemoContext: Memo checks the declaration before reading the memo,
// and only computes standalone.
func TestMemoContext(t *testing.T) {
	declared := WindowReq{Site: testSite(5), NV: 1000, Windows: 1}
	other := WindowReq{Site: testSite(6), NV: 1000, Windows: 1}
	seven := func() (int, error) { return 7, nil }
	reg := NewRegistry()
	register(t, reg, Scenario{
		Name: "first", Title: "first", Windows: []WindowReq{declared, other},
		Run: func(ctx *Context) (Result, error) {
			if _, err := Memo(ctx, declared, "n", seven); err != nil {
				return nil, err
			}
			_, err := Memo(ctx, other, "n", seven)
			return textResult("first"), err
		},
	})
	register(t, reg, Scenario{
		Name: "second", Title: "second", Windows: []WindowReq{declared},
		Run: func(ctx *Context) (Result, error) {
			if _, err := Memo(ctx, other, "n", seven); err == nil || !strings.Contains(err.Error(), "not declared") {
				return nil, fmt.Errorf("undeclared window memoized by another scenario: err = %v", err)
			}
			return textResult("second"), nil
		},
	})
	eng, err := NewEngine(reg, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	var runs int
	for i := 0; i < 2; i++ {
		if _, err := Memo(Standalone(), declared, "n", func() (int, error) { runs++; return runs, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 2 {
		t.Errorf("standalone computed %d times, want 2", runs)
	}
}

// TestEngineMemoCounts pins the memo counters of a small run shaped like
// the paper suite: two scenarios share an ensemble of one window, two
// site scenarios each compute a selection, and a backbone reads both
// selections. That is 3 misses and 3 hits, at any width, and every
// value is computed once per run; a second run starts a fresh memo.
func TestEngineMemoCounts(t *testing.T) {
	reqA := WindowReq{Site: testSite(31), NV: 1500, Windows: 2}
	reqB := WindowReq{Site: testSite(32), NV: 1500, Windows: 2}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			computed := map[string]int{}
			got := map[string][]int64{}
			// value memoizes the packets of req's windows under name and
			// records what each scenario got.
			value := func(ctx *Context, scen string, req WindowReq, name string) error {
				v, err := Memo(ctx, req, name, func() (int64, error) {
					mu.Lock()
					computed[req.Key()+"/"+name]++
					mu.Unlock()
					stats, err := ctx.Stream(req, stream.PipelineConfig{},
						stream.FuncSink(func(*stream.WindowResult) error { return nil }))
					return stats.ValidPackets, err
				})
				mu.Lock()
				got[scen] = append(got[scen], v)
				mu.Unlock()
				return err
			}
			scen := func(name string, windows []WindowReq, lookups func(*Context) error) Scenario {
				return Scenario{Name: name, Title: name, Windows: windows,
					Run: func(ctx *Context) (Result, error) { return textResult(name), lookups(ctx) }}
			}
			reg := NewRegistry()
			for _, name := range []string{"fig/a", "sel/a"} {
				register(t, reg, scen(name, []WindowReq{reqA}, func(ctx *Context) error {
					return value(ctx, name, reqA, "ensemble")
				}))
			}
			for _, site := range []struct {
				name string
				req  WindowReq
			}{{"site/a", reqA}, {"site/b", reqB}} {
				register(t, reg, scen(site.name, []WindowReq{site.req}, func(ctx *Context) error {
					return value(ctx, site.name, site.req, "selection")
				}))
			}
			register(t, reg, scen("backbone", []WindowReq{reqA, reqB}, func(ctx *Context) error {
				if err := value(ctx, "backbone", reqA, "selection"); err != nil {
					return err
				}
				return value(ctx, "backbone", reqB, "selection")
			}))
			eng, err := NewEngine(reg, Config{Workers: workers, CacheDir: t.TempDir(), Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run <= 2; run++ {
				if _, err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				m := eng.m
				if h, ms := m.MemoHits.Value(), m.MemoMisses.Value(); h != int64(3*run) || ms != int64(3*run) {
					t.Errorf("run %d: memo hits/misses = %d/%d, want %d/%d", run, h, ms, 3*run, 3*run)
				}
				if len(computed) != 3 {
					t.Errorf("run %d: %d distinct values computed, want 3", run, len(computed))
				}
				for k, n := range computed {
					if n != run {
						t.Errorf("run %d: %s computed %d times, want %d", run, k, n, run)
					}
				}
			}
			want := reqA.ValidPackets()
			for name, vs := range got {
				for _, v := range vs {
					if v != want {
						t.Errorf("%s got %d valid packets, want %d", name, v, want)
					}
				}
			}
		})
	}
}
