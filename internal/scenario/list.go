package scenario

import (
	"fmt"
	"strings"
)

// ListMarkdown renders the registry as the experiment index: the exact
// content of EXPERIMENTS.md, regenerated with `palu-figures -list`.
// Output is deterministic (registration order, no timings, no seeds
// beyond those baked into the descriptors).
func ListMarkdown(reg *Registry) string {
	var b strings.Builder
	b.WriteString("# Experiment index\n\n")
	b.WriteString("Every table, figure and ablation of the paper, as registered in the\n")
	b.WriteString("declarative scenario engine (`internal/scenario`, DESIGN.md §7).\n")
	b.WriteString("Regenerate this file with `go run ./cmd/palu-figures -list > EXPERIMENTS.md`;\n")
	b.WriteString("run any subset with `palu-figures -only <name|prefix>`, in parallel with\n")
	b.WriteString("`-parallel`, and with the PTRC window cache via `-cache-dir`.\n\n")
	b.WriteString("| scenario | summary section | cached windows | artifacts | purpose |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, s := range reg.Scenarios() {
		var wins []string
		for _, w := range s.Windows {
			// The short key prefix makes cache sharing visible: rows
			// with the same key read one cached archive, recorded once
			// per cache directory (DESIGN.md §14).
			wins = append(wins, fmt.Sprintf("%d×%d @ %s `%.8s`", w.Windows, w.NV, w.Site.Name, w.Key()))
		}
		cell := func(items []string) string {
			if len(items) == 0 {
				return "—"
			}
			return strings.Join(items, "; ")
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n",
			s.Name, s.Title, cell(wins), cell(s.Outputs), s.Description)
	}
	return b.String()
}
