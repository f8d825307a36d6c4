package spmat

import (
	"reflect"
	"testing"

	"hybridplaw/internal/xrand"
)

// len returns the number of occupied slots.
func (t *flatTable) len() int { return t.n }

// get returns key's count (0 when absent).
func (t *flatTable) get(key uint32) int64 {
	if t.n == 0 {
		return 0
	}
	mask := uint64(len(t.slots) - 1)
	i := mix64(uint64(key)) & mask
	for {
		s := &t.slots[i]
		switch {
		case s.val == 0:
			return 0
		case s.key == key:
			return s.val
		}
		i = (i + 1) & mask
	}
}

func TestFlatTableBasics(t *testing.T) {
	var ft flatTable
	if ft.get(0) != 0 || ft.len() != 0 {
		t.Fatal("zero table not empty")
	}
	// Key 0 is a valid key (node id 0): it must store and read back.
	if got := ft.add(0, 5); got != 5 {
		t.Fatalf("add(0,5) = %d", got)
	}
	if got := ft.add(0, 2); got != 7 {
		t.Fatalf("add(0,2) = %d, want 7 (accumulate)", got)
	}
	if ft.get(0) != 7 || ft.len() != 1 {
		t.Fatalf("get(0) = %d len=%d", ft.get(0), ft.len())
	}
	ft.reset()
	if ft.get(0) != 0 || ft.len() != 0 {
		t.Fatal("reset did not empty the table")
	}
	if got := ft.add(0, 3); got != 3 {
		t.Fatalf("add after reset = %d, want 3 (stale key must not resurrect)", got)
	}
}

func TestFlatTableVsMap(t *testing.T) {
	r := xrand.New(42)
	var ft flatTable
	ref := make(map[uint32]int64)
	for i := 0; i < 200000; i++ {
		k := uint32(r.Intn(5000))<<16 | uint32(r.Intn(5000))
		n := int64(r.Intn(4) + 1)
		ft.add(k, n)
		ref[k] += n
	}
	if ft.len() != len(ref) {
		t.Fatalf("len = %d, want %d", ft.len(), len(ref))
	}
	got := make(map[uint32]int64, ft.len())
	ft.forEach(func(k uint32, v int64) { got[k] = v })
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("flat table contents diverge from map reference")
	}
	for k, v := range ref {
		if ft.get(k) != v {
			t.Fatalf("get(%d) = %d, want %d", k, ft.get(k), v)
		}
	}
}

func TestFlatTableGrowthAcrossResets(t *testing.T) {
	var ft flatTable
	for round := 0; round < 3; round++ {
		for i := uint32(0); i < 10000; i++ {
			ft.add(i, int64(i)+1)
		}
		if ft.len() != 10000 {
			t.Fatalf("round %d: len = %d", round, ft.len())
		}
		if ft.get(9999) != 10000 {
			t.Fatalf("round %d: get(9999) = %d", round, ft.get(9999))
		}
		ft.reset()
	}
}
