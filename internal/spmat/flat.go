package spmat

// Cache-friendly open-addressing flat tables: the storage behind
// Builder. A window reduction is a
// key → count accumulation on the hot path; Go maps pay for hashing
// flexibility, bucket indirection and per-op write barriers that a
// fixed-shape table does not need. The tables here are linear-probing
// arrays with power-of-two capacity, keyed by uint32 node ids or packed
// uint64 link keys, exploiting one invariant of traffic reduction:
// every stored count is positive, so a zero value marks an empty slot
// and no separate occupancy metadata is required.
//
// Since the fused-decode refactor each slot interleaves its key with its
// value in one struct, so a probe touches a single cache line where the
// earlier parallel-array layout touched two — on the link-count table,
// whose working set is far beyond L2, that halves the DRAM lines the
// hottest loop pulls. addBatch layers memory-level parallelism on top:
// it hashes a stride of keys up front and touches each first-probe slot
// before resolving any of them, so the out-of-order core overlaps what
// would otherwise be a serial chain of cache misses. Reset clears slots
// in place, keeping a pooled builder's capacity warm across windows.

// flatKey constrains the key widths the reduction core uses: uint32
// node ids and uint64 packed (src, dst) link keys.
type flatKey interface {
	~uint32 | ~uint64
}

// flatMinCap is the smallest table allocation (power of two).
const flatMinCap = 64

// flatSlot interleaves a key with its count so one probe loads one
// cache line. val == 0 marks an empty slot (stored counts are positive);
// the key of an empty slot is meaningless.
type flatSlot[K flatKey] struct {
	key K
	val int64
}

// flatTable maps keys to positive int64 counts with linear probing.
// The zero value is ready to use (first add allocates).
type flatTable[K flatKey] struct {
	slots []flatSlot[K]
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

// linkKey packs a (src, dst) pair into one table key.
func linkKey(src, dst uint32) uint64 { return uint64(src)<<32 | uint64(dst) }

// add accumulates n (> 0) onto key's count and returns the count after
// the addition; a return equal to n therefore means the key is new.
func (t *flatTable[K]) add(key K, n int64) int64 {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	return t.addFrom(mix64(uint64(key))&mask, key, n, mask)
}

// addFrom resolves an accumulation whose probe starts at slot i (the
// caller has already hashed and masked the key).
func (t *flatTable[K]) addFrom(i uint64, key K, n int64, mask uint64) int64 {
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

// addBatch accumulates +1 for the key K(k >> shift) of every packed
// (src<<32 | dst) link key k: shift 0 keys a uint64 table by the whole
// link and a uint32 table by the destination, shift 32 keys a uint32
// table by the source. Duplicates are welcome — they accumulate like
// repeated add calls. Keys are processed in strides: all first-probe
// slots of a stride are hashed and touched before any key is resolved,
// so their cache misses overlap instead of serializing. The touch is a
// pure prefetch — resolution re-reads each slot, which keeps
// batch-internal duplicates and insertions correct.
func (t *flatTable[K]) addBatch(keys []uint64, shift uint) {
	i := 0
	for ; i+addBatchStride <= len(keys); i += addBatchStride {
		if 4*(t.n+addBatchStride) > 3*len(t.slots) {
			t.grow()
		}
		mask := uint64(len(t.slots) - 1)
		var idx [addBatchStride]uint64
		for j := range idx {
			idx[j] = mix64(uint64(K(keys[i+j]>>shift))) & mask
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
			t.addFrom(idx[j], K(keys[i+j]>>shift), 1, mask)
		}
	}
	for ; i < len(keys); i++ {
		t.add(K(keys[i]>>shift), 1)
	}
}

// nodeSlot carries a node id together with the two per-node reductions
// derive maintains in lockstep: the packet total (row/column sum) and
// the fan (unique-peer count). Interleaving them means one probe per
// link endpoint instead of two — derive visits each unique link once,
// so fan increments by exactly 1 per visit and a zero fan marks an
// empty slot.
type nodeSlot struct {
	key     uint32
	pk, fan int64
}

// nodeTable maps node ids to (packet total, fan) pairs with the same
// linear-probing layout as flatTable. The zero value is ready to use.
type nodeTable struct {
	slots []nodeSlot
	n     int
}

// add folds one unique-link visit into key's node reductions: pk onto
// the packet total, +1 onto the fan.
func (t *nodeTable) add(key uint32, pk int64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := mix64(uint64(key)) & mask
	for {
		s := &t.slots[i]
		switch {
		case s.fan == 0:
			s.key = key
			s.pk = pk
			s.fan = 1
			t.n++
			return
		case s.key == key:
			s.pk += pk
			s.fan++
			return
		}
		i = (i + 1) & mask
	}
}

// grow rehashes into a table twice the current capacity.
func (t *nodeTable) grow() {
	newCap := flatMinCap
	if len(t.slots) > 0 {
		newCap = 2 * len(t.slots)
	}
	old := t.slots
	t.slots = make([]nodeSlot, newCap)
	mask := uint64(newCap - 1)
	for _, s := range old {
		if s.fan == 0 {
			continue
		}
		i := mix64(uint64(s.key)) & mask
		for t.slots[i].fan != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// forEachPk calls f with every node's packet total, forEachFan with
// every node's fan, in (non-deterministic) slot order; see
// flatTable.forEach for the ordering contract.
func (t *nodeTable) forEachPk(f func(key uint32, val int64)) {
	for i := range t.slots {
		if t.slots[i].fan != 0 {
			f(t.slots[i].key, t.slots[i].pk)
		}
	}
}

func (t *nodeTable) forEachFan(f func(key uint32, val int64)) {
	for i := range t.slots {
		if t.slots[i].fan != 0 {
			f(t.slots[i].key, t.slots[i].fan)
		}
	}
}

// reset empties the table in place, retaining capacity.
func (t *nodeTable) reset() {
	if t.n == 0 {
		return
	}
	clear(t.slots)
	t.n = 0
}

// len returns the number of occupied slots.
func (t *nodeTable) len() int { return t.n }

// grow rehashes into a table twice the current capacity (or the minimum
// for a fresh table).
func (t *flatTable[K]) grow() {
	newCap := flatMinCap
	if len(t.slots) > 0 {
		newCap = 2 * len(t.slots)
	}
	old := t.slots
	t.slots = make([]flatSlot[K], newCap)
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
func (t *flatTable[K]) forEach(f func(key K, val int64)) {
	if t.n == 0 {
		return
	}
	for i := range t.slots {
		if t.slots[i].val != 0 {
			f(t.slots[i].key, t.slots[i].val)
		}
	}
}

// reset empties the table in place, retaining capacity.
func (t *flatTable[K]) reset() {
	if t.n == 0 {
		return
	}
	clear(t.slots)
	t.n = 0
}

// len returns the number of occupied slots.
func (t *flatTable[K]) len() int { return t.n }
