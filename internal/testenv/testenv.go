// Package testenv holds helpers that tests of several packages share,
// and that no product code uses. Most serve tests whose verdict depends
// on the machine they run on: wall-clock speedup gates that must tell a
// slow parallel path from CPUs held by another process. The
// parallel-speedup gates of internal/boot and internal/scenario live in
// this package's tests, so they run in one binary, one after another.
// The rest read an obs snapshot (metrics.go).
package testenv

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// maxLost is the share of a pair's wall time the process may lose
// before the pair counts as contended. Lost time is the summed run
// delay of its threads (runnable, but another process of this machine
// held the CPU) plus the machine's steal time (the hypervisor ran
// another guest on one of its CPUs, counted in 10 ms ticks). Measured
// on 2 vCPUs over the suite's serial/parallel pairs: 0–9% with the
// machine to itself, 25–75% beside the other binaries of a go test ./...
// run, and 20–40% on a loaded host, where steal alone pulled isolated
// pairs down to a 1.18x median.
const maxLost = 0.10

// deadline bounds how long MedianSpeedup waits for uncontended pairs,
// counted from the start of the test binary so every gate in it shares
// one wait: long enough to outlast the rest of a go test ./... run on 2
// CPUs.
const deadline = 60 * time.Second

// stop is when the shared wait ends.
var stop = time.Now().Add(deadline)

// MedianSpeedup measures the speedup of the code under test on CPUs
// nobody else holds. pair runs it once serially and once in parallel and
// returns serial/parallel wall time. go test runs package binaries side
// by side, and the host may run other guests on this machine's CPUs, so
// a pair that lost more than maxLost of its wall time says nothing
// either way and is not counted. Once want pairs counted, MedianSpeedup
// returns their median and uncontended = true. If the machine stays
// busy past the deadline, which every call in the binary shares, it
// returns the median over every pair measured and uncontended = false,
// and the caller decides whether that ratio is still a verdict. Where
// the kernel exposes neither run delay nor steal time, every pair
// counts.
func MedianSpeedup(tb testing.TB, want int, pair func() float64) (median float64, uncontended bool) {
	tb.Helper()
	var counted, all []float64
	for len(counted) < want {
		d0, ok := runDelay()
		s0, okSteal := steal()
		start := time.Now()
		r := pair()
		wall := time.Since(start)
		d1, ok1 := runDelay()
		s1, okSteal1 := steal()
		ok, okSteal = ok && ok1, okSteal && okSteal1
		var delay, stolen time.Duration
		if ok {
			delay = d1 - d0
		}
		if okSteal {
			stolen = s1 - s0
		}
		all = append(all, r)
		share := float64(delay+stolen) / float64(wall)
		if share <= maxLost {
			counted = append(counted, r)
			tb.Logf("pair %d: %.2fx (run delay %v, steal %v)", len(all), r, delay.Round(100*time.Microsecond), stolen)
			continue
		}
		tb.Logf("pair %d: %.2fx not counted: lost %.0f%% of its %v wall time (run delay %v, steal %v)",
			len(all), r, 100*share, wall.Round(time.Millisecond), delay.Round(100*time.Microsecond), stolen)
		if time.Now().After(stop) {
			return middle(all), false
		}
		time.Sleep(2 * time.Second) // leave the CPUs to whoever holds them
	}
	return middle(counted), true
}

func middle(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// runDelay sums, over the process's threads, the time each spent
// runnable but waiting for a CPU (the second field of schedstat).
func runDelay() (time.Duration, bool) {
	tasks, err := filepath.Glob("/proc/self/task/*/schedstat")
	if err != nil || len(tasks) == 0 {
		return 0, false
	}
	var sum int64
	for _, p := range tasks {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) < 2 {
			return 0, false
		}
		ns, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, false
		}
		sum += ns
	}
	return time.Duration(sum), true
}

// steal returns the machine's cumulative steal time over all its CPUs,
// from the cpu line of /proc/stat (in USER_HZ = 100 ticks per second).
func steal() (time.Duration, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * 10 * time.Millisecond, true
}
