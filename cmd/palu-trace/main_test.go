package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridplaw/internal/netgen"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/tracestore"
)

const (
	testNV      = 2000
	testWindows = 3
	testNodes   = 4000
	testP       = 0.5
	testSeed    = 77
)

func testSite(t *testing.T) *netgen.Site {
	t.Helper()
	cfg, err := defaultSiteConfig(testNodes, testP, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	site, err := netgen.NewSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// TestRecordReplayMatchesDirectGeneration pins the acceptance contract:
// record -> replay reproduces the same Fig. 1 ensemble output as direct
// generation from the same site, float-identical.
func TestRecordReplayMatchesDirectGeneration(t *testing.T) {
	// record: archive the 3-window trace prefix of the site.
	var archive bytes.Buffer
	n, err := recordSite(&archive, testSite(t), testWindows, testNV,
		tracestore.WriterOptions{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if n < testWindows*testNV {
		t.Fatalf("recorded %d packets, want >= %d", n, testWindows*testNV)
	}

	// info: the index must agree with what was recorded.
	path := filepath.Join(t.TempDir(), "trace.ptrc")
	if err := os.WriteFile(path, archive.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := tracestore.InfoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Packets != n || info.ValidPackets != testWindows*testNV {
		t.Fatalf("info %d/%d packets, want %d/%d", info.Packets, info.ValidPackets, n, testWindows*testNV)
	}

	// Direct generation: a fresh site with the same seed through the
	// pipeline, no archive involved.
	for _, q := range stream.Quantities {
		direct, directStats, err := replayEnsemble(testSite(t).PacketSource(),
			testNV, testWindows, q, nil)
		if err != nil {
			t.Fatal(err)
		}

		// replay: the archive through the sequential reader.
		src, err := tracestore.NewReader(bytes.NewReader(archive.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		replayed, replayStats, err := replayEnsemble(src, testNV, testWindows, q, nil)
		if err != nil {
			t.Fatal(err)
		}

		if directStats.Windows != testWindows || replayStats.Windows != testWindows {
			t.Fatalf("%v: windows direct=%d replay=%d", q, directStats.Windows, replayStats.Windows)
		}
		if directStats.ValidPackets != replayStats.ValidPackets ||
			directStats.InvalidPackets != replayStats.InvalidPackets {
			t.Fatalf("%v: packet accounting diverges: direct %+v, replay %+v",
				q, directStats, replayStats)
		}
		dm, ds := direct.Ensemble(q).Mean(), direct.Ensemble(q).Sigma()
		rm, rs := replayed.Ensemble(q).Mean(), replayed.Ensemble(q).Sigma()
		if len(dm) != len(rm) {
			t.Fatalf("%v: bin counts differ: %d vs %d", q, len(dm), len(rm))
		}
		for i := range dm {
			if dm[i] != rm[i] || ds[i] != rs[i] {
				t.Fatalf("%v bin %d: replay not float-identical to direct generation "+
					"(mean %v vs %v, sigma %v vs %v)", q, i, rm[i], dm[i], rs[i], ds[i])
			}
		}
	}
}

// TestRecordedArchiveRoundTripsThroughCSV checks record -> convert(CSV)
// -> convert(PTRC) preserves the packet sequence.
func TestRecordedArchiveRoundTripsThroughCSV(t *testing.T) {
	var archive bytes.Buffer
	if _, err := recordSite(&archive, testSite(t), 1, 500, tracestore.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if _, err := tracestore.PTRCToCSV(bytes.NewReader(archive.Bytes()), &csv); err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if _, err := tracestore.CSVToPTRC(bytes.NewReader(csv.Bytes()), &back, tracestore.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	a, err := tracestore.NewReader(bytes.NewReader(archive.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tracestore.NewReader(bytes.NewReader(back.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		pa, oka := a.Next()
		pb, okb := b.Next()
		if oka != okb {
			t.Fatalf("length mismatch at packet %d", i)
		}
		if !oka {
			break
		}
		if pa != pb {
			t.Fatalf("packet %d: %+v != %+v", i, pa, pb)
		}
	}
	if a.Err() != nil || b.Err() != nil {
		t.Fatalf("reader errors: %v, %v", a.Err(), b.Err())
	}
}

// TestFailedOutputRemoved pins that a failing convert or record removes
// its output: converting a truncated archive to CSV fails on the missing
// index after writing most of its packets, and a short CSV left behind
// would replay as a silently short trace. A convert whose -out names its
// input is refused before the input is touched.
func TestFailedOutputRemoved(t *testing.T) {
	dir := t.TempDir()
	var archive bytes.Buffer
	if _, err := recordSite(&archive, testSite(t), 2, 2000, tracestore.WriterOptions{BlockSize: 512}); err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.ptrc")
	if err := os.WriteFile(cut, archive.Bytes()[:archive.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "cut.csv")
	if err := cmdConvert([]string{"-in", cut, "-out", csv}); !errors.Is(err, tracestore.ErrCorrupt) {
		t.Fatalf("convert of a truncated archive: error %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(csv); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed convert left %s behind (stat error %v)", csv, err)
	}
	if err := cmdConvert([]string{"-in", cut, "-out", cut}); err == nil {
		t.Fatal("convert onto its own input succeeded")
	}
	if st, err := os.Stat(cut); err != nil || st.Size() != int64(archive.Len()/2) {
		t.Errorf("convert onto its own input damaged it: %v, %v", st, err)
	}

	out := filepath.Join(dir, "bad.ptrc")
	if err := cmdRecord([]string{"-out", out, "-nv", "100", "-windows", "1", "-nodes", "500", "-block", "-5"}); err == nil {
		t.Fatal("record with -block -5 succeeded")
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed record left %s behind (stat error %v)", out, err)
	}
}

func TestFormatInfo(t *testing.T) {
	out := formatInfo("x.ptrc", tracestore.ArchiveInfo{
		FileSize: 1000, Blocks: 2, Packets: 300, ValidPackets: 290,
		RawBytes: 1800, CompressedBytes: 900,
	})
	for _, want := range []string{"x.ptrc", "300", "290", "10 invalid", "50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "block\t") || strings.Contains(out, "  block ") {
		t.Errorf("non-verbose info should not carry the block table:\n%s", out)
	}
}

// TestFormatInfoBlocks pins the -verbose report: the summary lines plus
// one table row per block, all through the same tabwriter.
func TestFormatInfoBlocks(t *testing.T) {
	out := formatInfoBlocks("x.ptrc", tracestore.ArchiveInfo{
		FileSize: 1000, Blocks: 2, Packets: 300, ValidPackets: 290,
		RawBytes: 1800, CompressedBytes: 900,
	}, []tracestore.BlockStat{
		{Packets: 200, Valid: 195, RawBytes: 1200, CompressedBytes: 600},
		{Packets: 100, Valid: 95, RawBytes: 600, CompressedBytes: 240},
	})
	for _, want := range []string{
		"10 invalid", "block", "compressed", "195", "40.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("verbose info output missing %q:\n%s", want, out)
		}
	}
	// Summary (path line + 4 tabbed lines), a blank separator, one row
	// per block plus the table header.
	if got, want := strings.Count(out, "\n"), 5+1+2+1; got != want {
		t.Errorf("verbose info has %d lines, want %d:\n%s", got, want, out)
	}
}
