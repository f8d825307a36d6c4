package main

import (
	"bytes"
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
	info, err := tracestore.Info(bytes.NewReader(archive.Bytes()), int64(archive.Len()))
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
			testNV, testWindows, 2, q, nil)
		if err != nil {
			t.Fatal(err)
		}

		// replay: the archive through the sequential reader.
		src, err := tracestore.NewReader(bytes.NewReader(archive.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		replayed, replayStats, err := replayEnsemble(src, testNV, testWindows, 2, q, nil)
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

// TestRecordPackedCodecReplayIdentical pins the -codec record path: a
// packed-codec archive replays the identical packet sequence as the
// deflate archive of the same site, and info reports the codec mix.
func TestRecordPackedCodecReplayIdentical(t *testing.T) {
	var deflated, packed bytes.Buffer
	if _, err := recordSite(&deflated, testSite(t), 1, 500, tracestore.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := recordSite(&packed, testSite(t), 1, 500,
		tracestore.WriterOptions{Codec: tracestore.CodecPacked}); err != nil {
		t.Fatal(err)
	}
	info, err := tracestore.Info(bytes.NewReader(packed.Bytes()), int64(packed.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if info.CodecMix() != "packed" {
		t.Fatalf("codec mix %q, want packed", info.CodecMix())
	}
	a, err := tracestore.NewReader(bytes.NewReader(deflated.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tracestore.NewReader(bytes.NewReader(packed.Bytes()))
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

// TestConvertHonoursLevel pins that convert -codec deflate -level 9 on
// a level-1 DEFLATE archive re-encodes every block at level 9: the
// output equals recording the same packets at level 9, byte for byte.
// The trace spans a full default-size block, the case a codec- and
// geometry-matched re-frame would have copied unchanged.
func TestConvertHonoursLevel(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "l1.ptrc")
	out := filepath.Join(dir, "l9.ptrc")
	var l1, l9 bytes.Buffer
	if _, err := recordSite(&l1, testSite(t), 2, 40000, tracestore.WriterOptions{Level: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := recordSite(&l9, testSite(t), 2, 40000, tracestore.WriterOptions{Level: 9}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(l1.Bytes(), l9.Bytes()) {
		t.Fatal("level 1 and level 9 archives are identical; the fixture cannot tell them apart")
	}
	if err := os.WriteFile(in, l1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdConvert([]string{"-in", in, "-out", out, "-codec", "deflate", "-level", "9"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, l9.Bytes()) {
		t.Errorf("convert -level 9 wrote %d bytes, want the %d-byte level-9 recording", len(got), l9.Len())
	}
}

func TestFormatInfo(t *testing.T) {
	out := formatInfo("x.ptrc", tracestore.ArchiveInfo{
		FileSize: 1000, Blocks: 2, Packets: 300, ValidPackets: 290,
		RawBytes: 1800, CompressedBytes: 900,
	})
	for _, want := range []string{"x.ptrc", "300", "290", "10 invalid", "50.0%", "codec:", "deflate"} {
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
		{Packets: 200, Valid: 195, RawBytes: 1200, CompressedBytes: 600, Codec: tracestore.CodecDeflate},
		{Packets: 100, Valid: 95, RawBytes: 600, CompressedBytes: 240, Codec: tracestore.CodecPacked},
	})
	for _, want := range []string{
		"10 invalid", "block", "compressed", "195", "40.0%", "packed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("verbose info output missing %q:\n%s", want, out)
		}
	}
	// Summary (path line + 5 tabbed lines incl. the codec mix), a blank
	// separator, one row per block plus the table header.
	if got, want := strings.Count(out, "\n"), 6+1+2+1; got != want {
		t.Errorf("verbose info has %d lines, want %d:\n%s", got, want, out)
	}
}
