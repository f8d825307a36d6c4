// Command palu-trace manages PTRC packet trace archives: the
// packed-column binary format of internal/tracestore that makes every
// experiment runnable from archived traces instead of regenerating
// synthetic traffic each run.
//
// Usage:
//
//	palu-trace record  -out trace.ptrc -nv 100000 -windows 4 [site flags]
//	palu-trace convert -in trace.csv  -out trace.ptrc
//	palu-trace convert -in trace.ptrc -out trace.csv
//	palu-trace info    -in trace.ptrc
//	palu-trace replay  -in trace.ptrc -nv 100000 -quantity fan-out
//	palu-trace cache   -dir ptrc
//
// record captures a synthetic observatory trace: exactly the packet
// prefix a windows×NV pipeline run consumes, so replaying the archive
// reproduces direct generation bit-identically. convert translates
// between the trace CSV and PTRC (direction inferred from the -in file's
// magic). info prints the archive summary from its index without
// decoding any block. replay streams an archive through the Section II
// measurement pipeline, one window at a time. cache summarizes a
// scenario-engine window cache (the -cache-dir of palu-figures), one
// line per cached window.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/obs"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/tracestore"
	"hybridplaw/internal/zipfmand"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("palu-trace: ")
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "cache":
		err = cmdCache(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		log.Printf("unknown subcommand %q", os.Args[1])
		usage()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: palu-trace <record|convert|info|replay|cache> [flags]

  record  -out FILE -nv N -windows W   capture a synthetic site trace to PTRC
  convert -in FILE -out FILE           convert trace CSV <-> PTRC
  info    -in FILE                     print a PTRC archive summary
  replay  -in FILE -nv N [-windows W]  run the measurement pipeline on an archive
  cache   -dir DIR                     summarize a scenario-engine window cache

Run a subcommand with -h for its flags.`)
	os.Exit(2)
}

// defaultSiteConfig is the synthetic observatory preset shared by record
// and the round-trip tests: a mid-sized PALU network with hub-oriented
// heavy-tailed traffic and invalid packets the pipeline must filter.
func defaultSiteConfig(nodes int, p float64, seed uint64) (netgen.SiteConfig, error) {
	params, err := palu.FromWeights(2, 2, 1.5, 2.5, 2.0)
	if err != nil {
		return netgen.SiteConfig{}, err
	}
	return netgen.SiteConfig{
		Name: "palu-trace", Params: params, Nodes: nodes, P: p,
		WeightAlpha: 2.1, WeightDelta: 0, MaxWeight: 4096,
		InvalidFraction: 0.02, HubOrientation: 0.7, Seed: seed,
	}, nil
}

// recordSite archives the exact packet prefix a windows×NV pipeline run
// over the site consumes (TakeValid pins the boundary at the closing
// valid packet), so replaying the archive with MaxWindows=windows is
// bit-identical to direct generation.
func recordSite(w io.Writer, site *netgen.Site, windows int, nv int64, opts tracestore.WriterOptions) (int64, error) {
	return tracestore.Record(w, stream.TakeValid(site.PacketSource(), nv*int64(windows)), opts)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		out     = fs.String("out", "", "output PTRC file (required)")
		nv      = fs.Int64("nv", 100000, "valid packets per window NV")
		windows = fs.Int("windows", 4, "number of windows to capture")
		nodes   = fs.Int("nodes", 50000, "underlying node budget")
		p       = fs.Float64("p", 0.5, "edge observation probability")
		seed    = fs.Uint64("seed", 1, "random seed")
		block   = fs.Int("block", 0, "packets per PTRC block (0 = default)")
	)
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("record: -out is required")
	}
	if *windows <= 0 || *nv <= 0 {
		return fmt.Errorf("record: -windows and -nv must be positive")
	}
	cfg, err := defaultSiteConfig(*nodes, *p, *seed)
	if err != nil {
		return err
	}
	site, err := netgen.NewSite(cfg)
	if err != nil {
		return err
	}
	n, err := writeOutput(*out, func(w io.Writer) (int64, error) {
		return recordSite(w, site, *windows, *nv, tracestore.WriterOptions{BlockSize: *block})
	})
	if err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d packets (%d windows x NV=%d) to %s (%d bytes, %.2f bytes/packet)\n",
		n, *windows, *nv, *out, st.Size(), float64(st.Size())/float64(n))
	return nil
}

// writeOutput creates the file at path and runs write into it. When
// write or the close fails the file is removed, so a failed record or
// convert leaves no short trace behind for a later run to replay.
func writeOutput(path string, write func(io.Writer) (int64, error)) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return n, err
}

// isPTRC sniffs the file magic.
func isPTRC(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	magic := make([]byte, tracestore.MagicLen)
	if _, err := io.ReadFull(f, magic); err != nil {
		return false, nil // too short to be PTRC; treat as CSV
	}
	return tracestore.IsArchive(magic), nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	var (
		in    = fs.String("in", "", "input trace (CSV or PTRC, sniffed; required)")
		out   = fs.String("out", "", "output trace (opposite format; required)")
		block = fs.Int("block", 0, "packets per PTRC block of a CSV -> PTRC conversion (0 = default)")
	)
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("convert: -in and -out are required")
	}
	ptrc, err := isPTRC(*in)
	if err != nil {
		return err
	}
	src, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	// Creating the output truncates it, and a failed convert removes it,
	// so an -out naming the input would destroy the input.
	if ost, err := os.Stat(*out); err == nil {
		if ist, err := src.Stat(); err == nil && os.SameFile(ist, ost) {
			return fmt.Errorf("convert: -out %s is the input file", *out)
		}
	}
	n, err := writeOutput(*out, func(w io.Writer) (int64, error) {
		if ptrc {
			return tracestore.PTRCToCSV(src, w)
		}
		return tracestore.CSVToPTRC(src, w, tracestore.WriterOptions{BlockSize: *block})
	})
	if err != nil {
		return err
	}
	fmt.Printf("converted %d packets: %s -> %s\n", n, *in, *out)
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "PTRC archive (required)")
		verbose = fs.Bool("verbose", false, "append a per-block table (from the index, no block decodes)")
	)
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("info: -in is required")
	}
	if *verbose {
		info, blocks, err := tracestore.InfoFileBlocks(*in)
		if err != nil {
			return err
		}
		fmt.Print(formatInfoBlocks(*in, info, blocks))
		return nil
	}
	info, err := tracestore.InfoFile(*in)
	if err != nil {
		return err
	}
	fmt.Print(formatInfo(*in, info))
	return nil
}

// formatInfo renders an archive summary (separate from cmdInfo for the
// tests).
func formatInfo(path string, info tracestore.ArchiveInfo) string {
	return formatInfoBlocks(path, info, nil)
}

// formatInfoBlocks renders the summary and, when blocks is non-nil, the
// per-block table. The whole report goes through one tabwriter so the
// summary labels and the table columns align consistently regardless of
// the archive's magnitudes (the old hand-padded fields drifted once a
// count outgrew its column).
func formatInfoBlocks(path string, info tracestore.ArchiveInfo, blocks []tracestore.BlockStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: PTRC archive, %d bytes\n", path, info.FileSize)
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "  blocks:\t%d\t\n", info.Blocks)
	fmt.Fprintf(tw, "  packets:\t%d (%d valid, %d invalid)\t\n",
		info.Packets, info.ValidPackets, info.Packets-info.ValidPackets)
	if info.Packets > 0 {
		fmt.Fprintf(tw, "  bytes/packet:\t%.2f\t\n", float64(info.FileSize)/float64(info.Packets))
	}
	if info.RawBytes > 0 {
		fmt.Fprintf(tw, "  compression:\t%d -> %d payload bytes (%.1f%%)\t\n",
			info.RawBytes, info.CompressedBytes,
			100*float64(info.CompressedBytes)/float64(info.RawBytes))
	}
	if blocks != nil {
		// A tab-free line ends the summary's column block, so the table
		// below aligns on its own widths.
		fmt.Fprintln(tw)
		fmt.Fprintf(tw, "  block\tpackets\tvalid\traw\tcompressed\tratio\t\n")
		for i, bs := range blocks {
			ratio := 0.0
			if bs.RawBytes > 0 {
				ratio = 100 * float64(bs.CompressedBytes) / float64(bs.RawBytes)
			}
			fmt.Fprintf(tw, "  %d\t%d\t%d\t%d\t%d\t%.1f%%\t\n",
				i, bs.Packets, bs.Valid, bs.RawBytes, bs.CompressedBytes, ratio)
		}
	}
	tw.Flush()
	return b.String()
}

// cmdCache summarizes every archive in a scenario-engine window cache
// directory (the -cache-dir of palu-figures): one line per entry from
// its index, no block decodes.
func cmdCache(args []string) error {
	fs := flag.NewFlagSet("cache", flag.ExitOnError)
	dir := fs.String("dir", "", "window cache directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("cache: -dir is required")
	}
	paths, err := filepath.Glob(filepath.Join(*dir, "*.ptrc"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		fmt.Printf("%s: no cached windows\n", *dir)
		return nil
	}
	var totalBytes, totalPackets int64
	for _, path := range paths {
		info, err := tracestore.InfoFile(path)
		if err != nil {
			return fmt.Errorf("cache: %s: %w", path, err)
		}
		key := strings.TrimSuffix(filepath.Base(path), ".ptrc")
		fmt.Printf("%s  %9d packets (%d valid)  %4d blocks  %9d bytes\n",
			key, info.Packets, info.ValidPackets, info.Blocks, info.FileSize)
		totalBytes += info.FileSize
		totalPackets += info.Packets
	}
	fmt.Printf("%d cached windows, %d packets, %d bytes\n",
		len(paths), totalPackets, totalBytes)
	return nil
}

// replayEnsemble streams a PacketSource through the measurement pipeline
// and returns the pooled ensemble of q. windows <= 0 replays the whole
// source; m (nil = uninstrumented) collects the pipeline's metrics.
func replayEnsemble(src stream.PacketSource, nv int64, windows int, q stream.Quantity, m *stream.Metrics) (*stream.EnsembleSink, stream.PipelineStats, error) {
	sink := stream.NewEnsembleSink(q)
	stats, err := stream.Run(src, stream.PipelineConfig{
		NV: nv, MaxWindows: windows, Metrics: m,
	}, sink)
	if err != nil {
		return nil, stats, err
	}
	if stats.Windows == 0 {
		return nil, stats, stream.ErrShortStream
	}
	return sink, stats, nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		in       = fs.String("in", "", "PTRC archive (required)")
		nv       = fs.Int64("nv", 100000, "valid packets per window NV")
		windows  = fs.Int("windows", 0, "max windows (0 = replay the whole archive)")
		quantity = fs.String("quantity", "fan-out", "quantity: "+strings.Join(stream.QuantityFlagNames[:], "|"))
		metrics  = fs.String("metrics", "", "write a metrics snapshot (JSON) here after the replay (- = stdout)")
	)
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("replay: -in is required")
	}
	q, err := stream.ParseQuantity(*quantity)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	var (
		obsReg *obs.Registry
		sm     *stream.Metrics
		tm     *tracestore.Metrics
	)
	if *metrics != "" {
		obsReg = obs.NewRegistry()
		sm = stream.NewMetrics(obsReg)
		tm = tracestore.NewMetrics(obsReg)
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := tracestore.NewReader(f)
	if err != nil {
		return err
	}
	src.SetMetrics(tm)

	sink, stats, err := replayEnsemble(src, *nv, *windows, q, sm)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d windows of NV=%d from %s (%d packets read, %d invalid filtered, %d tail discarded)\n",
		stats.Windows, *nv, *in, stats.SourcePacketsRead, stats.InvalidPackets, stats.DiscardedTail)

	ens := sink.Ensemble(q)
	mean, sigma := ens.Mean(), ens.Sigma()
	fmt.Printf("\n%s: pooled differential cumulative probability over %d windows\n", q, ens.Windows())
	fmt.Printf("%8s %14s %14s\n", "di", "mean D(di)", "sigma(di)")
	for i := range mean {
		fmt.Printf("%8d %14.6g %14.6g\n", hist.BinUpper(i), mean[i], sigma[i])
	}
	fit, err := zipfmand.FitEnsemble(ens, sink.Merged(q), zipfmand.DefaultFitOptions())
	if err != nil {
		return err
	}
	fmt.Printf("\nmodified Zipf-Mandelbrot fit: alpha=%.3f delta=%.3f (SSE=%.4g)\n",
		fit.Alpha, fit.Delta, fit.SSE)
	if obsReg != nil {
		if err := obs.DumpJSON(obsReg, *metrics); err != nil {
			return err
		}
	}
	return nil
}
