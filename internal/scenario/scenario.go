// Package scenario is the declarative experiment engine behind the paper
// suite (DESIGN.md §7). A Scenario bundles a named experiment with its
// declarations: the artifact files it writes and the synthetic traffic
// windows it streams. A Registry holds the suite; an Engine runs it in
// registration order on a bounded worker pool, and a content-addressed
// PTRC window cache records each generated traffic window once so every
// later consumer replays it through the streaming pipeline instead of
// regenerating it. Within one run, a single-flight value memo (Memo)
// computes each finished value that several scenarios read only once.
package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"

	"hybridplaw/internal/netgen"
)

// Result is the typed outcome of a scenario run. Summary renders the
// scenario's summary.txt fragment: deterministic, newline-terminated
// lines, no timings, no trailing blank line (the engine inserts section
// separation).
type Result interface {
	Summary() string
}

// WindowReq declares one synthetic traffic window set a scenario streams:
// Windows consecutive windows of NV valid packets each, observed at Site.
// Equal requirements (same site fingerprint, same total valid packets)
// are the unit of sharing in the window cache — the first scenario to
// need one records it, every other replays it.
type WindowReq struct {
	// Site configures the synthetic observatory producing the traffic.
	Site netgen.SiteConfig
	// NV is the window size in valid packets.
	NV int64
	// Windows is the number of consecutive windows consumed.
	Windows int
}

// Validate checks the requirement.
func (r WindowReq) Validate() error {
	if r.NV <= 0 {
		return fmt.Errorf("scenario: window NV=%d must be positive", r.NV)
	}
	if r.Windows <= 0 {
		return fmt.Errorf("scenario: window count %d must be positive", r.Windows)
	}
	if err := r.Site.Validate(); err != nil {
		return err
	}
	return nil
}

// ValidPackets is the total number of valid packets the requirement
// consumes: exactly the TakeValid prefix recorded into the cache.
func (r WindowReq) ValidPackets() int64 { return r.NV * int64(r.Windows) }

// Key is the content-addressed cache identity of the requirement: a hash
// of the site configuration fingerprint (every generation parameter plus
// the seed) and the total valid-packet prefix length. Two requirements
// with the same key consume byte-identical traffic prefixes, regardless
// of how they cut them into windows.
func (r WindowReq) Key() string {
	h := sha256.New()
	h.Write([]byte("ptrc-window-key-v1\n"))
	h.Write([]byte(r.Site.Fingerprint()))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(r.ValidPackets()))
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Scenario is one declarative experiment: a unique name, the summary
// section it renders, and its declared data flow. Run performs the
// experiment through the Context, which enforces the declarations: only
// declared artifacts may be written and only declared windows streamed.
type Scenario struct {
	// Name uniquely identifies the scenario ("table1", "fig3/tokyo2015-…").
	// Slashes group related scenarios for prefix selection.
	Name string
	// Title is the summary.txt section heading.
	Title string
	// Description is the one-line purpose shown by the experiment index.
	Description string
	// Outputs names the artifact files this scenario may write through
	// Context.WriteArtifact. Output names are unique across a registry.
	Outputs []string
	// Windows declares the traffic windows the scenario streams through
	// Context.Stream. Declared windows participate in the PTRC cache:
	// scenarios sharing a window key meet in its single-flight, so one
	// records and the rest replay.
	Windows []WindowReq
	// Run executes the experiment.
	Run func(*Context) (Result, error)
}

// Validate checks the descriptor in isolation.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return errors.New("scenario: empty name")
	}
	if strings.ContainsAny(s.Name, " ,\t\n") {
		return fmt.Errorf("scenario %q: name must not contain spaces or commas", s.Name)
	}
	if s.Title == "" {
		return fmt.Errorf("scenario %q: empty title", s.Name)
	}
	if s.Run == nil {
		return fmt.Errorf("scenario %q: nil Run", s.Name)
	}
	seen := make(map[string]bool, len(s.Outputs))
	for _, out := range s.Outputs {
		if out == "" {
			return fmt.Errorf("scenario %q: empty output name", s.Name)
		}
		if seen[out] {
			return fmt.Errorf("scenario %q: duplicate output %q", s.Name, out)
		}
		seen[out] = true
	}
	for i, w := range s.Windows {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("scenario %q: window %d: %w", s.Name, i, err)
		}
	}
	return nil
}

// Registry is an ordered collection of scenarios. Registration order is
// the canonical suite order: the engine starts scenarios in it and
// summaries render in it. A Registry is built once at startup and
// read-only afterwards; building is not safe for concurrent use.
type Registry struct {
	order  []string
	byName map[string]Scenario
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Scenario)}
}

// Register validates and adds a scenario. Names and output artifact
// names must be unique across the registry.
func (r *Registry) Register(s Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, ok := r.byName[s.Name]; ok {
		return fmt.Errorf("scenario: duplicate name %q", s.Name)
	}
	for _, prev := range r.order {
		for _, out := range r.byName[prev].Outputs {
			if slices.Contains(s.Outputs, out) {
				return fmt.Errorf("scenario %q: output %q already produced by %q", s.Name, out, prev)
			}
		}
	}
	r.byName[s.Name] = s
	r.order = append(r.order, s.Name)
	return nil
}

// Get returns the named scenario.
func (r *Registry) Get(name string) (Scenario, bool) {
	s, ok := r.byName[name]
	return s, ok
}

// Names returns every scenario name in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// Scenarios returns every scenario in registration order.
func (r *Registry) Scenarios() []Scenario {
	out := make([]Scenario, len(r.order))
	for i, name := range r.order {
		out[i] = r.byName[name]
	}
	return out
}

// Select resolves comma-separable selection tokens against the registry:
// a token matches a scenario whose name equals it or starts with
// token + "/" (so "fig3" selects every Fig. 3 panel). The result is in
// registration order. An empty token list selects everything.
func (r *Registry) Select(tokens ...string) ([]string, error) {
	if len(tokens) == 0 {
		return r.Names(), nil
	}
	selected := make(map[string]bool)
	for _, tok := range tokens {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		found := false
		for _, name := range r.order {
			if name == tok || strings.HasPrefix(name, tok+"/") {
				selected[name] = true
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("scenario: %q matches no registered scenario (have: %s)",
				tok, strings.Join(r.order, ", "))
		}
	}
	var out []string
	for _, name := range r.order {
		if selected[name] {
			out = append(out, name)
		}
	}
	return out, nil
}
