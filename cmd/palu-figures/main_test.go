package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hybridplaw/internal/experiments"
)

// TestRunDeterministicAcrossWidths runs a seeded subset of the suite
// serially (GOMAXPROCS 1) and at the default width, each over its own
// cold window cache, and requires byte-identical artifacts and
// summary.txt between the two runs, and every declared artifact equal
// to the committed out/ file (generated at seed 1).
func TestRunDeterministicAcrossWidths(t *testing.T) {
	only := onlyFlags{"table1", "fig1", "validation"}
	runAt := func(procs int) string {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dir := t.TempDir()
		out := filepath.Join(dir, "out")
		err := run(options{
			out:      out,
			seed:     1,
			cacheDir: filepath.Join(dir, "cache"),
			only:     only,
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return out
	}
	serial := runAt(1)
	wide := runAt(runtime.GOMAXPROCS(0))

	reg := experiments.MustRegistry(1)
	selection, err := reg.Select(only...)
	if err != nil {
		t.Fatal(err)
	}
	compare := func(name, a, b string) {
		t.Helper()
		x, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s: %s and %s differ", name, a, b)
		}
	}
	compare("summary.txt", filepath.Join(serial, "summary.txt"), filepath.Join(wide, "summary.txt"))
	artifacts := 0
	for _, name := range selection {
		s, _ := reg.Get(name)
		for _, art := range s.Outputs {
			artifacts++
			compare(art, filepath.Join(serial, art), filepath.Join(wide, art))
			compare(art, filepath.Join(serial, art), filepath.Join("..", "..", "out", art))
		}
	}
	if artifacts == 0 {
		t.Fatal("selection declares no artifacts")
	}
}
