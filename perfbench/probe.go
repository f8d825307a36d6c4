package main

import (
	"math"
	"slices"
	"time"
)

// probe times a fixed workload built from the standard library alone
// (math.Pow, random read-modify-writes over 32 MiB, a sort of 1M keys),
// so no change to the program under test can make it faster or slower:
// its time tracks only how fast the machine runs right now. run.py
// scales the run's time metrics by it, which cancels host speed drift
// between runs.
func probe() map[string]float64 {
	start := time.Now()
	x := 0.0
	for i := 1; i <= 1_500_000; i++ {
		x += math.Pow(float64(i), -1.7)
	}
	buf := make([]uint64, 1<<22)
	s := uint64(1)
	for i := 0; i < 1<<23; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		buf[s>>42] += s
	}
	keys := make([]uint64, 1<<20)
	for i := range keys {
		s = s*6364136223846793005 + 1442695040888963407
		keys[i] = s ^ buf[i]
	}
	slices.Sort(keys)
	// The checksum keeps the compiler from discarding the work.
	return map[string]float64{"probe_s": time.Since(start).Seconds(), "checksum": x + float64(keys[0]>>40)}
}
