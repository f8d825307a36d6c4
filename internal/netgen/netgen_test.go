package netgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"hybridplaw/internal/palu"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/xrand"
	"hybridplaw/internal/zipfmand"
)

func testConfig() SiteConfig {
	params, err := palu.FromWeights(2, 2, 1, 2, 2.0)
	if err != nil {
		panic(err)
	}
	return SiteConfig{
		Name: "test", Params: params, Nodes: 20000, P: 0.5,
		WeightAlpha: 2.2, WeightDelta: 0, MaxWeight: 512,
		InvalidFraction: 0.05, Seed: 42,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*SiteConfig){
		func(c *SiteConfig) { c.Nodes = 0 },
		func(c *SiteConfig) { c.P = 0 },
		func(c *SiteConfig) { c.P = 1.5 },
		func(c *SiteConfig) { c.MaxWeight = 0 },
		func(c *SiteConfig) { c.InvalidFraction = -0.1 },
		func(c *SiteConfig) { c.InvalidFraction = 1 },
		func(c *SiteConfig) { c.WeightAlpha = 0 },
		func(c *SiteConfig) { c.WeightDelta = -2 },
		func(c *SiteConfig) { c.Params = palu.Params{C: 9, Alpha: 2} },
	}
	for i, mut := range mutations {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestNewSiteDeterministic(t *testing.T) {
	a, err := NewSite(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSite(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := a.observe(xrand.New(7), nil)
	pb, _ := b.observe(xrand.New(7), nil)
	if len(pa) != len(pb) {
		t.Fatalf("same seed, different pass sizes: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different packet streams")
		}
	}
}

func TestObservationPassProperties(t *testing.T) {
	s, err := NewSite(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pass, _ := s.observe(xrand.New(3), nil)
	if len(pass) == 0 {
		t.Fatal("empty observation pass")
	}
	var invalid, valid int
	for _, p := range pass {
		if p.Valid {
			valid++
		} else {
			invalid++
		}
	}
	frac := float64(invalid) / float64(valid+invalid)
	if math.Abs(frac-0.05) > 0.02 {
		t.Errorf("invalid fraction = %v, want ~0.05", frac)
	}
	// Expected valid packets ≈ E[w]·p·|edges|.
	wm := zipfmand.Model{Alpha: 2.2, Delta: 0}
	pmf, err := wm.PMF(512)
	if err != nil {
		t.Fatal(err)
	}
	var ew float64
	for d, p := range pmf {
		ew += float64(d+1) * p
	}
	want := ew * 0.5 * float64(s.underlying.G.NumEdges())
	if math.Abs(float64(valid)-want) > 0.15*want {
		t.Errorf("valid packets = %d, want ~%v", valid, want)
	}
}

// collect runs src through the pipeline for maxWindows windows of nv
// valid packets, matrices kept, and returns them.
func collect(t *testing.T, src stream.PacketSource, nv int64, maxWindows int) []*stream.WindowResult {
	t.Helper()
	var col stream.ResultCollector
	if _, err := stream.Run(src, stream.PipelineConfig{
		NV: nv, MaxWindows: maxWindows, KeepMatrices: true,
	}, &col); err != nil {
		t.Fatal(err)
	}
	return col.Results
}

func TestGenerateWindows(t *testing.T) {
	s, err := NewSite(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	wins := collect(t, s.PacketSource(), 5000, 3)
	if len(wins) != 3 {
		t.Fatalf("windows = %d", len(wins))
	}
	for i, w := range wins {
		if w.NV != 5000 {
			t.Errorf("window %d NV = %d", i, w.NV)
		}
		if w.Matrix.ValidPackets() != 5000 {
			t.Errorf("window %d matrix packets = %d", i, w.Matrix.ValidPackets())
		}
	}
}

func TestPacketSourceIsLazy(t *testing.T) {
	// Two identically seeded sites. Site a's source is run for three
	// windows and then for one more; site b's runs four windows in one go.
	// A run that consumed packets past its final window's closing packet
	// would skew a's fourth window.
	a, err := NewSite(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSite(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	srcA := a.PacketSource()
	if got := len(collect(t, srcA, 5000, 3)); got != 3 {
		t.Fatalf("first run cut %d windows, want 3", got)
	}
	fourthA := collect(t, srcA, 5000, 1)
	winsB := collect(t, b.PacketSource(), 5000, 4)
	if len(fourthA) != 1 || len(winsB) != 4 {
		t.Fatalf("cut %d and %d windows, want 1 and 4", len(fourthA), len(winsB))
	}
	if fourthA[0].NV != winsB[3].NV ||
		!reflect.DeepEqual(fourthA[0].Matrix.Entries(), winsB[3].Matrix.Entries()) {
		t.Error("window 4 of the resumed source differs from window 4 of one run")
	}
	// Both sites generated the same passes, so their RNGs agree: fresh
	// sources of each cut the same next window.
	nextA := collect(t, a.PacketSource(), 5000, 1)
	nextB := collect(t, b.PacketSource(), 5000, 1)
	if !reflect.DeepEqual(nextA[0].Matrix.Entries(), nextB[0].Matrix.Entries()) {
		t.Error("post-consumption windows diverge")
	}
}

func TestWindowDistributionHasLeafExcess(t *testing.T) {
	// The synthetic observatory must reproduce the paper's qualitative
	// signature: D(d=1) is the largest pooled bin for fan-out.
	s, err := NewSite(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := collect(t, s.PacketSource(), 20000, 1)[0].Hists[stream.SourceFanOut]
	p, err := h.Pool()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(p.D); i++ {
		if p.D[i] > p.D[0] {
			t.Fatalf("bin %d (%v) exceeds D(1)=%v", i, p.D[i], p.D[0])
		}
	}
}

func TestFigure3PanelsWellFormed(t *testing.T) {
	panels := Figure3Panels()
	if len(panels) != 6 {
		t.Fatalf("panels = %d, want 6", len(panels))
	}
	seen := map[string]bool{}
	for _, p := range panels {
		if seen[p.ID] {
			t.Errorf("duplicate panel id %q", p.ID)
		}
		seen[p.ID] = true
		if err := p.Site.Validate(); err != nil {
			t.Errorf("panel %s: %v", p.ID, err)
		}
		if p.NV <= 0 || p.Windows <= 0 {
			t.Errorf("panel %s: bad NV/windows", p.ID)
		}
		if p.PaperAlpha < 1.5 || p.PaperAlpha > 3 {
			t.Errorf("panel %s: paper alpha %v outside the paper's range", p.ID, p.PaperAlpha)
		}
		if p.PaperDelta <= -1 {
			t.Errorf("panel %s: paper delta %v invalid", p.ID, p.PaperDelta)
		}
	}
}

func TestLinkPacketsPanelMatchesWeightModel(t *testing.T) {
	// For the link-packets quantity, the observed distribution is the
	// weight law itself, so the ZM fit must recover the configured
	// (WeightAlpha, WeightDelta) closely. This is the calibration anchor
	// for the Fig. 3 reproduction.
	panel := Figure3Panels()[2] // chicagoA link packets
	site, err := NewSite(panel.Site)
	if err != nil {
		t.Fatal(err)
	}
	h := collect(t, site.PacketSource(), panel.NV, 1)[0].Hists[stream.LinkPackets]
	fit, _, err := zipfmand.FitHistogram(h, zipfmand.DefaultFitOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-panel.Site.WeightAlpha) > 0.15 {
		t.Errorf("link packets alpha = %v, configured %v", fit.Alpha, panel.Site.WeightAlpha)
	}
	if math.Abs(fit.Delta-panel.Site.WeightDelta) > 0.35 {
		t.Errorf("link packets delta = %v, configured %v", fit.Delta, panel.Site.WeightDelta)
	}
}

// TestPassBufferReused: after a site source's first pass, each pass is
// generated into the storage of the pass before it. Generating one
// allocates only the child RNG that Split returns, never a packet
// buffer, and the buffer stays where the first pass put it.
func TestPassBufferReused(t *testing.T) {
	s, err := NewSite(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := s.PacketSource().(*siteSource)
	if _, ok := src.Next(); !ok {
		t.Fatal(src.Err())
	}
	first := &src.buf[0]
	nextPass := func() {
		src.i = len(src.buf) // mark the pass consumed
		if _, ok := src.Next(); !ok {
			t.Fatal(src.Err())
		}
	}
	if allocs := testing.AllocsPerRun(10, nextPass); allocs != 1 {
		t.Errorf("a pass after the first allocates %v times, want 1 (the Split RNG)", allocs)
	}
	if &src.buf[0] != first {
		t.Error("a later pass moved to a new packet buffer")
	}
}

func BenchmarkObservationPass(b *testing.B) {
	s, err := NewSite(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.observe(r, nil)
	}
}

// BenchmarkPacketSource drains about six observation passes per
// operation from one site source, as a Fig. 3 ensemble does: the
// steady state in which each pass reuses the last one's buffer.
func BenchmarkPacketSource(b *testing.B) {
	s, err := NewSite(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	src := s.PacketSource()
	const valid = 250000
	for b.Loop() {
		take := stream.TakeValid(src, valid)
		for {
			if _, ok := take.Next(); !ok {
				break
			}
		}
		if err := take.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*valid), "ns/valid-packet")
}

// TestFingerprint: the content hash is stable for equal configurations
// and sensitive to every field that shapes the generated traffic.
func TestFingerprint(t *testing.T) {
	base := testConfig()
	if got, again := base.Fingerprint(), base.Fingerprint(); got != again {
		t.Fatalf("fingerprint unstable: %s vs %s", got, again)
	}
	if len(base.Fingerprint()) != 32 {
		t.Fatalf("fingerprint %q not 32 hex chars", base.Fingerprint())
	}
	mutations := map[string]func(*SiteConfig){
		"Name":            func(c *SiteConfig) { c.Name = "other" },
		"Params.Alpha":    func(c *SiteConfig) { c.Params.Alpha += 1e-9 },
		"Params.Lambda":   func(c *SiteConfig) { c.Params.Lambda += 1e-9 },
		"Nodes":           func(c *SiteConfig) { c.Nodes++ },
		"P":               func(c *SiteConfig) { c.P += 1e-12 },
		"WeightAlpha":     func(c *SiteConfig) { c.WeightAlpha += 1e-12 },
		"WeightDelta":     func(c *SiteConfig) { c.WeightDelta += 1e-12 },
		"MaxWeight":       func(c *SiteConfig) { c.MaxWeight++ },
		"InvalidFraction": func(c *SiteConfig) { c.InvalidFraction += 1e-12 },
		"HubOrientation":  func(c *SiteConfig) { c.HubOrientation += 1e-12 },
		"CoreDegreeFloor": func(c *SiteConfig) { c.CoreDegreeFloor++ },
		"Seed":            func(c *SiteConfig) { c.Seed++ },
	}
	for field, mutate := range mutations {
		c := base
		mutate(&c)
		if c.Fingerprint() == base.Fingerprint() {
			t.Errorf("fingerprint insensitive to %s", field)
		}
	}
	// Float identity is bit-level: distinguishable zero signs aside, the
	// same bits always hash the same.
	c := base
	c.P = base.P
	if c.Fingerprint() != base.Fingerprint() {
		t.Error("identical config fingerprints differ")
	}
}

// TestObservationStreamPinned pins the generated packet stream of every
// Fig. 3 site, and of the test site with hub orientation, by SHA-256:
// the bytes of the first n packets TakeValid passes through (n valid
// ones), and the site RNG's next Uint64 afterwards. Each n spans at
// least three observation passes, so buffer reuse across passes is
// covered. The stream decides the PTRC archive bytes and every Fig. 3
// panel, so a change here needs a fingerprintVersion bump.
func TestObservationStreamPinned(t *testing.T) {
	hub := testConfig()
	hub.HubOrientation = 0.7
	sites := map[string]SiteConfig{"test-hub": hub}
	for _, p := range Figure3Panels() {
		sites[p.ID] = p.Site
	}
	pins := map[string]struct {
		n      int64
		sha256 string
		next   uint64
	}{
		"test-hub":                     {140000, "ea1d2bcc6cef3c7f7963acfc8026eb3c30df5b1a8b0b82d7e359c64aee2a63de", 0xc50da53101795238},
		"tokyo2015-source-packets":     {220000, "9aceeba9fc014be006873250441995d1245699558fd30de427b526dc56a5648f", 0x52e749a2bcf4ed5d},
		"tokyo2017-source-fanout":      {2980000, "1728264f1a26d0251ac28f4845feffcc5181fa5629abaa2536bf91271ac4408e", 0x485eb18420d5fc6a},
		"chicagoA2016jan-link-packets": {440000, "49015900214f139cc3a49189edf8792d7727551b17e1a7ef5b6930566583bbde", 0x91782eaaebf9dc77},
		"chicagoB2016mar-dest-fanin":   {3220000, "bb47a23cb1df4fb161e58e49cdbe5569b759a4b15d33370b9aadaa8f631ee94f", 0x8663cba4760b7f01},
		"chicagoA2016feb-dest-packets": {140000, "097dd3d48a3df0d9a511d8c2d41f0574d8b5ce020a61314ae978d3ec9ebbd317", 0x14f89118cfcd5e0b},
		"tokyo2017-dest-packets":       {430000, "d3e68097842dccf21df1e3c73a34a80eaca5330e0cd0599e83b7dc2e20f481df", 0xb4f4575507113764},
	}
	for id, cfg := range sites {
		id, cfg := id, cfg
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			pin, ok := pins[id]
			if !ok {
				t.Fatalf("no pin for site %s", id)
			}
			// The first three passes of a twin site must fit in n.
			twin, err := NewSite(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var firstThree int64
			for i := 0; i < 3; i++ {
				pass, _ := twin.observe(twin.rng.Split(), nil)
				for _, p := range pass {
					if p.Valid {
						firstThree++
					}
				}
			}
			if firstThree >= pin.n {
				t.Fatalf("n=%d does not span three passes (%d valid packets)", pin.n, firstThree)
			}

			site, err := NewSite(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := stream.TakeValid(site.PacketSource(), pin.n)
			h := sha256.New()
			var rec [9]byte
			for {
				p, ok := src.Next()
				if !ok {
					break
				}
				binary.LittleEndian.PutUint32(rec[0:], p.Src)
				binary.LittleEndian.PutUint32(rec[4:], p.Dst)
				rec[8] = 0
				if p.Valid {
					rec[8] = 1
				}
				h.Write(rec[:])
			}
			if err := src.Err(); err != nil {
				t.Fatal(err)
			}
			got, next := hex.EncodeToString(h.Sum(nil)), site.rng.Uint64()
			if got != pin.sha256 || next != pin.next {
				t.Errorf("stream sha256 %s, next Uint64 %#x; pinned %s, %#x", got, next, pin.sha256, pin.next)
			}
		})
	}
}
