package spmat

// WindowPartial: the mergeable unit of federated aggregation. A partial
// is a window's link counts frozen into canonical (Src, Dst)-sorted
// order — exactly the information from which every Fig. 1 reduction and
// Table I aggregate of the window re-derives. Because the canonical
// form is sorted and counts combine by integer addition, Merge is
// deterministic, associative and commutative: merging per-site partials
// in any grouping yields byte-identical backbone windows, which is what
// the federation scenarios rely on.

import (
	"errors"
	"math"
)

// WindowPartial is a deterministic, mergeable partial aggregate of one
// traffic window (or of several windows already merged). The zero value
// is an empty partial.
type WindowPartial struct {
	entries []Entry // sorted by (Src, Dst), unique keys, positive counts
	total   int64
}

// NNZ returns the number of unique links in the partial.
func (p WindowPartial) NNZ() int { return len(p.entries) }

// Total returns the packet total Σ counts (NV for a single full window).
func (p WindowPartial) Total() int64 { return p.total }

// Merge returns the partial aggregating both operands: link counts of
// equal (src, dst) keys sum, disjoint keys interleave in canonical
// order. Neither operand is modified. Merge is associative and
// commutative, and its result is deterministic (canonical order in,
// canonical order out) — the federation backbone's correctness rests on
// exactly this.
func (p WindowPartial) Merge(q WindowPartial) WindowPartial {
	if len(p.entries) == 0 {
		return q
	}
	if len(q.entries) == 0 {
		return p
	}
	out := make([]Entry, 0, len(p.entries)+len(q.entries))
	i, j := 0, 0
	for i < len(p.entries) && j < len(q.entries) {
		a, b := p.entries[i], q.entries[j]
		switch {
		case a.Src == b.Src && a.Dst == b.Dst:
			out = append(out, Entry{Src: a.Src, Dst: a.Dst, Count: a.Count + b.Count})
			i++
			j++
		case a.Src < b.Src || (a.Src == b.Src && a.Dst < b.Dst):
			out = append(out, a)
			i++
		default:
			out = append(out, b)
			j++
		}
	}
	out = append(out, p.entries[i:]...)
	out = append(out, q.entries[j:]...)
	return WindowPartial{entries: out, total: p.total + q.total}
}

// Rebase returns the partial with every node id shifted by offset: the
// per-site id-space separation step of federation (each site's
// anonymized ids start at 0, so merging raw partials would alias
// unrelated endpoints across sites). It fails if any shifted id would
// overflow uint32.
func (p WindowPartial) Rebase(offset uint32) (WindowPartial, error) {
	if offset == 0 || len(p.entries) == 0 {
		return p, nil
	}
	limit := uint32(math.MaxUint32) - offset
	out := make([]Entry, len(p.entries))
	for i, e := range p.entries {
		if e.Src > limit || e.Dst > limit {
			return WindowPartial{}, errors.New("spmat: rebase offset overflows uint32 id space")
		}
		out[i] = Entry{Src: e.Src + offset, Dst: e.Dst + offset, Count: e.Count}
	}
	// A uniform shift preserves (Src, Dst) order, so out stays canonical.
	return WindowPartial{entries: out, total: p.total}, nil
}

// Matrix freezes the partial into an immutable Matrix (sharing no
// state; the entries are copied). The partial's entries are already
// canonical — sorted, unique, positive — so no re-sort is needed.
func (p WindowPartial) Matrix() *Matrix {
	return &Matrix{entries: append([]Entry(nil), p.entries...), total: p.total}
}
