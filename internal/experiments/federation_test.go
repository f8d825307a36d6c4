package experiments

import (
	"reflect"
	"strings"
	"testing"

	"hybridplaw/internal/obs"
	"hybridplaw/internal/scenario"
)

func TestFederationSitesValid(t *testing.T) {
	sites := FederationSites()
	if len(sites) != 3 {
		t.Fatalf("federation suite has %d sites, want 3", len(sites))
	}
	seen := map[string]bool{}
	for _, s := range sites {
		if seen[s.ID] {
			t.Fatalf("duplicate federation site id %q", s.ID)
		}
		seen[s.ID] = true
		if err := s.Site.Validate(); err != nil {
			t.Errorf("site %s: %v", s.ID, err)
		}
		if s.Site.Nodes >= federationIDStride {
			t.Errorf("site %s: %d nodes overflow the rebase stride %d",
				s.ID, s.Site.Nodes, federationIDStride)
		}
		if err := federationReq(s).Validate(); err != nil {
			t.Errorf("site %s window req: %v", s.ID, err)
		}
	}
}

func TestFederationScenariosRegistered(t *testing.T) {
	reg := MustRegistry(1)
	selected, err := reg.Select("federation")
	if err != nil {
		t.Fatal(err)
	}
	want := len(FederationSites()) + 1 // members + backbone
	if len(selected) != want {
		t.Fatalf("federation prefix selects %d scenarios (%v), want %d", len(selected), selected, want)
	}
	backbone, ok := reg.Get("federation/backbone")
	if !ok {
		t.Fatal("federation/backbone not registered")
	}
	if len(backbone.Windows) != len(FederationSites()) {
		t.Fatalf("backbone declares %d windows, want one per site", len(backbone.Windows))
	}
	// The backbone must share each member's cache key so one recording
	// serves the whole family.
	for i, s := range FederationSites() {
		member, ok := reg.Get("federation/" + s.ID)
		if !ok {
			t.Fatalf("federation/%s not registered", s.ID)
		}
		if member.Windows[0].Key() != backbone.Windows[i].Key() {
			t.Errorf("site %s: member and backbone window keys differ", s.ID)
		}
	}
}

// TestFederationBackbone runs the backbone compute end to end
// (standalone, direct generation) and checks its superposition
// invariants: per-window NV adds exactly across members, links add
// exactly under rebasing, and every selection table has a winner.
func TestFederationBackbone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFederationBackbone()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWindow) != federationWindows {
		t.Fatalf("%d backbone windows, want %d", len(res.PerWindow), federationWindows)
	}
	wantNV := int64(len(res.SiteIDs)) * federationNV
	for _, row := range res.PerWindow {
		if row.Backbone.ValidPackets != wantNV {
			t.Errorf("window %d: backbone NV=%d, want %d", row.T, row.Backbone.ValidPackets, wantNV)
		}
		var sum int64
		for _, l := range row.SiteLinks {
			sum += l
		}
		if row.Backbone.UniqueLinks != sum {
			t.Errorf("window %d: backbone links %d != member sum %d", row.T, row.Backbone.UniqueLinks, sum)
		}
	}
	if res.Backbone.Winner() == "" {
		t.Error("backbone selection has no winner")
	}
	for i, sel := range res.SiteSelections {
		if sel.Winner() == "" {
			t.Errorf("site %s selection has no winner", res.SiteIDs[i])
		}
	}
	sum := res.Summary()
	if !strings.Contains(sum, "backbone") || !strings.HasSuffix(sum, "\n") {
		t.Error("summary malformed")
	}
}

// TestFederationBackboneMemoPaths runs federation/backbone through one
// uncached engine twice: alone, where every site lookup misses the
// value memo and the backbone replays each site for its result, and
// with the member scenarios, where the lookups share the members'
// results. Both paths must give the same backbone, and every member's
// result must equal what the backbone read for it.
func TestFederationBackboneMemoPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	reg := obs.NewRegistry()
	eng, err := scenario.NewEngine(MustRegistry(1), scenario.Config{OutDir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	m := scenario.NewMetrics(reg) // the engine's own instruments: obs registries get or create
	alone, err := eng.Run("federation/backbone")
	if err != nil {
		t.Fatal(err)
	}
	sites := FederationSites()
	if h, ms := m.MemoHits.Value(), m.MemoMisses.Value(); h != 0 || ms != int64(len(sites)) {
		t.Fatalf("backbone alone: memo hits/misses %d/%d, want 0/%d", h, ms, len(sites))
	}
	var names []string
	for _, s := range sites {
		names = append(names, "federation/"+s.ID)
	}
	withSites, err := eng.Run(append(names, "federation/backbone")...)
	if err != nil {
		t.Fatal(err)
	}
	if h, ms := m.MemoHits.Value(), m.MemoMisses.Value(); h != int64(len(sites)) || ms != int64(2*len(sites)) {
		t.Fatalf("with members: memo hits/misses %d/%d, want %d/%d", h, ms, len(sites), 2*len(sites))
	}
	want := alone[0].Result.(FederationBackboneResult)
	got := withSites[len(sites)].Result.(FederationBackboneResult)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("backbone differs between the memo-miss and memo-hit paths:\n%s\nvs\n%s", got.Summary(), want.Summary())
	}
	for i, s := range sites {
		site := withSites[i].Result.(FederationSiteResult)
		if site.ID != s.ID || !reflect.DeepEqual(site.Selection, want.SiteSelections[i]) {
			t.Errorf("site %s: member selection differs from the backbone's memo-miss read", s.ID)
		}
	}
}
