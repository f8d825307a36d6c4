package spmat

import (
	"reflect"
	"testing"

	"hybridplaw/internal/xrand"
)

func buildPartial(seed uint64, n, universe int) WindowPartial {
	b := NewBuilder()
	r := xrand.New(seed)
	for i := 0; i < n; i++ {
		addPacket(b, uint32(r.Intn(universe)), uint32(r.Intn(universe)))
	}
	return b.Partial()
}

func TestPartialCanonicalForm(t *testing.T) {
	p := buildPartial(3, 5000, 200)
	es := p.entries
	for i := 1; i < len(es); i++ {
		a, b := es[i-1], es[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst >= b.Dst) {
			t.Fatalf("entries not strictly (Src,Dst)-sorted at %d: %+v %+v", i, a, b)
		}
	}
	if p.Total() != 5000 {
		t.Fatalf("Total = %d", p.Total())
	}
}

func TestPartialMergeMatchesJointBuild(t *testing.T) {
	// Merging two partials must equal building one partial from the
	// concatenated traffic.
	b1, b2, joint := NewBuilder(), NewBuilder(), NewBuilder()
	r := xrand.New(9)
	for i := 0; i < 20000; i++ {
		src, dst := uint32(r.Intn(150)), uint32(r.Intn(150))
		if i%2 == 0 {
			addPacket(b1, src, dst)
		} else {
			addPacket(b2, src, dst)
		}
		addPacket(joint, src, dst)
	}
	merged := b1.Partial().Merge(b2.Partial())
	want := joint.Partial()
	if !reflect.DeepEqual(merged.entries, want.entries) || merged.Total() != want.Total() {
		t.Fatal("Merge(a, b) diverges from jointly built partial")
	}
}

func TestPartialMergeAssociativeCommutative(t *testing.T) {
	a := buildPartial(1, 3000, 80)
	b := buildPartial(2, 4000, 80)
	c := buildPartial(3, 2000, 80)
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	swapped := c.Merge(a.Merge(b))
	if !reflect.DeepEqual(left.entries, right.entries) {
		t.Fatal("Merge not associative")
	}
	if !reflect.DeepEqual(left.entries, swapped.entries) {
		t.Fatal("Merge not commutative")
	}
	if left.Total() != a.Total()+b.Total()+c.Total() {
		t.Fatalf("merged total %d != %d", left.Total(), a.Total()+b.Total()+c.Total())
	}
}

func TestPartialMergeEmpty(t *testing.T) {
	a := buildPartial(5, 1000, 40)
	var zero WindowPartial
	if got := a.Merge(zero); !reflect.DeepEqual(got.entries, a.entries) {
		t.Fatal("merge with zero partial must be identity")
	}
	if got := zero.Merge(a); !reflect.DeepEqual(got.entries, a.entries) {
		t.Fatal("zero.Merge(a) must equal a")
	}
	if zero.Merge(zero).Total() != 0 {
		t.Fatal("zero merge not empty")
	}
}

func TestPartialRebase(t *testing.T) {
	p := buildPartial(7, 2000, 100)
	const off = 1 << 24
	shifted, err := p.Rebase(off)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.Total() != p.Total() || len(shifted.entries) != len(p.entries) {
		t.Fatal("rebase changed totals")
	}
	for i, e := range shifted.entries {
		orig := p.entries[i]
		if e.Src != orig.Src+off || e.Dst != orig.Dst+off || e.Count != orig.Count {
			t.Fatalf("entry %d: %+v vs %+v", i, e, orig)
		}
	}
	// Rebased id spaces are disjoint: merging must not alias.
	merged := p.Merge(shifted)
	if len(merged.entries) != 2*len(p.entries) || merged.Total() != 2*p.Total() {
		t.Fatalf("disjoint merge: nnz=%d total=%d", len(merged.entries), merged.Total())
	}
	if _, err := p.Rebase(0xFFFFFFFF); err == nil {
		t.Fatal("overflowing rebase must fail")
	}
}
