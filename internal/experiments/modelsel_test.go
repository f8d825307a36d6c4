package experiments

import (
	"strings"
	"testing"

	"hybridplaw/internal/netgen"
	"hybridplaw/internal/scenario"
)

// TestModelSelectionPALUPinsZMFamily is the acceptance pin: on
// PALU-generated traffic the modified Zipf–Mandelbrot family wins the
// likelihood-based selection among the approximating families, and the
// single power law loses decisively under the Vuong test.
func TestModelSelectionPALUPinsZMFamily(t *testing.T) {
	res, err := modelSelectionPALU(1, baselineN, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.WinnerFamily(); got != "zm" {
		t.Errorf("winner family on PALU traffic = %q, want zm\n%s", got, res.Summary())
	}
	if p, ok := res.BestParsimonious(); !ok || p.Model.Name() != "zm" {
		t.Errorf("best parsimonious family = %+v, want zm", p)
	}
	for i, r := range res.Selection.Results {
		if r.Fitter != "plaw" {
			continue
		}
		v := res.Selection.Vuong[i]
		if !(v.Z > 0 && v.P < 0.01) { // favours the winner at the 1% level
			t.Errorf("Vuong vs single power law not decisive: z=%v p=%v", v.Z, v.P)
		}
	}
	if len(res.Failed) != 0 {
		t.Errorf("unexpected fit failures: %+v", res.Failed)
	}
}

// TestModelSelectionPanel runs the cheapest Fig. 3 panel end to end and
// sanity-checks the table, summary, and CSV artifact.
func TestModelSelectionPanel(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a full panel in -short mode")
	}
	var spec netgen.PanelSpec
	found := false
	for _, s := range netgen.Figure3Panels() {
		if s.ID == "tokyo2017-source-fanout" {
			spec, found = s, true
		}
	}
	if !found {
		t.Fatal("panel tokyo2017-source-fanout missing")
	}
	res, err := runModelSelectionPanel(&scenario.Context{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner() == "" {
		t.Fatalf("no winner:\n%s", res.Summary())
	}
	if res.N == 0 || res.DMax == 0 {
		t.Errorf("missing histogram stats: %+v", res)
	}
	// The paper's core contrast: the ZM family must outrank the single
	// power law on streamed fan-out traffic.
	rank := map[string]int{}
	for pos, i := range res.Selection.Order {
		rank[res.Selection.Results[i].Fitter] = pos
	}
	zmRank, zmOK := rank["zm-mle"]
	plawRank, plawOK := rank["plaw"]
	if !zmOK || !plawOK || zmRank > plawRank {
		t.Errorf("zm-mle rank %d (ok=%v) vs plaw rank %d (ok=%v)\n%s",
			zmRank, zmOK, plawRank, plawOK, res.Summary())
	}
	var csv strings.Builder
	if err := writeModelSelectionCSV(&csv, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("csv too short:\n%s", csv.String())
	}
	if !strings.HasPrefix(lines[0], "rank,fitter,family,") {
		t.Errorf("csv header: %s", lines[0])
	}
	sum := res.Summary()
	if !strings.Contains(sum, "winner:") {
		t.Errorf("summary missing winner line:\n%s", sum)
	}
}

// TestModelSelScenariosShareFig3Windows: each modelsel panel declares
// the same cached window as its fig3 sibling, so the engine records the
// traffic once.
func TestModelSelScenariosShareFig3Windows(t *testing.T) {
	reg := MustRegistry(1)
	for _, spec := range netgen.Figure3Panels() {
		fig3, ok := reg.Get("fig3/" + spec.ID)
		if !ok {
			t.Fatalf("fig3/%s missing", spec.ID)
		}
		sel, ok := reg.Get("modelsel/" + spec.ID)
		if !ok {
			t.Fatalf("modelsel/%s missing", spec.ID)
		}
		if len(fig3.Windows) != 1 || len(sel.Windows) != 1 ||
			fig3.Windows[0].Key() != sel.Windows[0].Key() {
			t.Errorf("%s: modelsel does not share the fig3 cached window", spec.ID)
		}
	}
	if _, ok := reg.Get("modelsel/palu-observed"); !ok {
		t.Error("modelsel/palu-observed missing")
	}
	sel, err := reg.Select("modelsel")
	if err != nil || len(sel) != len(netgen.Figure3Panels())+1 {
		t.Errorf("modelsel selection = %v, %v", sel, err)
	}
}

// TestModelSelectionSummaryDeterministic reruns the reference selection
// and requires byte-identical summaries (the CI determinism diff -r of
// a GOMAXPROCS=1 run against default-width runs depends on it).
func TestModelSelectionSummaryDeterministic(t *testing.T) {
	a, err := modelSelectionPALU(3, 60000, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := modelSelectionPALU(3, 60000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() != b.Summary() {
		t.Error("summaries differ between identical runs")
	}
	var csvA, csvB strings.Builder
	if err := writeModelSelectionCSV(&csvA, a); err != nil {
		t.Fatal(err)
	}
	if err := writeModelSelectionCSV(&csvB, b); err != nil {
		t.Fatal(err)
	}
	if csvA.String() != csvB.String() {
		t.Error("CSVs differ between identical runs")
	}
}
