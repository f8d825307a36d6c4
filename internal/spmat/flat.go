package spmat

// The open-addressing flat table behind NodeCounter: per-node packet
// totals keyed by uint32 node id, in a linear-probing array of
// power-of-two capacity. Every stored count is positive, so a zero
// value marks an empty slot and no occupancy metadata is needed; each
// slot interleaves its key with its count, so a probe touches one cache
// line. Reset clears slots in place, keeping the capacity warm across
// windows.

// flatMinCap is the smallest table allocation (power of two).
const flatMinCap = 64

// flatSlot interleaves a key with its count so one probe loads one
// cache line. val == 0 marks an empty slot (stored counts are positive);
// the key of an empty slot is meaningless.
type flatSlot struct {
	key uint32
	val int64
}

// flatTable maps node ids to positive int64 counts with linear probing.
// The zero value is ready to use (first add allocates).
type flatTable struct {
	slots []flatSlot
	n     int // occupied slots
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed hash for
// integer keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add accumulates n (> 0) onto key's count and returns the count after
// the addition; a return equal to n therefore means the key is new.
func (t *flatTable) add(key uint32, n int64) int64 {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	return t.addFrom(mix64(uint64(key))&mask, key, n, mask)
}

// addFrom resolves an accumulation whose probe starts at slot i (the
// caller has already hashed and masked the key).
func (t *flatTable) addFrom(i uint64, key uint32, n int64, mask uint64) int64 {
	for {
		s := &t.slots[i]
		switch {
		case s.val == 0:
			s.key = key
			s.val = n
			t.n++
			return n
		case s.key == key:
			s.val += n
			return s.val
		}
		i = (i + 1) & mask
	}
}

// addBatchStride is the number of keys addBatch resolves per round: wide
// enough to keep several first-probe cache misses in flight, small
// enough to live in registers and L1.
const addBatchStride = 8

// addBatch accumulates +1 for the node id uint32(k >> shift) of every
// packed (src<<32 | dst) key k: shift 32 counts sources, 0
// destinations. It hashes a stride of keys and touches every
// first-probe slot before resolving any, so their cache misses overlap
// instead of serializing; the touch is a pure prefetch, and resolution
// re-reads each slot, which keeps duplicates within a stride correct.
func (t *flatTable) addBatch(keys []uint64, shift uint) {
	i := 0
	for ; i+addBatchStride <= len(keys); i += addBatchStride {
		if 4*(t.n+addBatchStride) > 3*len(t.slots) {
			t.grow()
		}
		mask := uint64(len(t.slots) - 1)
		var idx [addBatchStride]uint64
		for j := range idx {
			idx[j] = mix64(uint64(uint32(keys[i+j]>>shift))) & mask
		}
		var touch int64
		for j := range idx {
			touch |= t.slots[idx[j]].val
		}
		// Counts are positive, so this never fires; the compiler cannot
		// prove that, which keeps the prefetching loads above alive.
		if touch == -1<<63 {
			panic("spmat: impossible flat-table state")
		}
		for j := range idx {
			t.addFrom(idx[j], uint32(keys[i+j]>>shift), 1, mask)
		}
	}
	for ; i < len(keys); i++ {
		t.add(uint32(keys[i]>>shift), 1)
	}
}

// grow rehashes into a table twice the current capacity (or the minimum
// for a fresh table).
func (t *flatTable) grow() {
	newCap := flatMinCap
	if len(t.slots) > 0 {
		newCap = 2 * len(t.slots)
	}
	old := t.slots
	t.slots = make([]flatSlot, newCap)
	mask := uint64(newCap - 1)
	for _, s := range old {
		if s.val == 0 {
			continue
		}
		i := mix64(uint64(s.key)) & mask
		for t.slots[i].val != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// forEach calls f for every occupied slot, in slot order. Slot order
// depends on insertion history and is NOT deterministic across
// differently-built tables; callers must only fold the visits through
// order-independent reductions (integer accumulation) or sort.
func (t *flatTable) forEach(f func(key uint32, val int64)) {
	for i := range t.slots {
		if t.slots[i].val != 0 {
			f(t.slots[i].key, t.slots[i].val)
		}
	}
}

// reset empties the table in place, retaining capacity.
func (t *flatTable) reset() {
	if t.n == 0 {
		return
	}
	clear(t.slots)
	t.n = 0
}
