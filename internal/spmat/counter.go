package spmat

import (
	"math"
	"math/bits"
	"slices"
)

// NodeCounter accumulates a window's per-node packet totals straight
// from packed (src<<32 | dst) link keys: the row sums At·1 (source
// packets) and/or the column sums 1ᵀAt (destination packets), each
// packet counted at its node's id on every side the counter counts.
// Neither sum needs the link-level matrix At, so a window whose readers
// want nothing else keeps no keys. Unique links, fan-out and fan-in are
// not recoverable from node totals; a window that reads any of them
// accumulates into a Builder instead.
//
// A side counts densely while its ids are narrow: one int64 per id
// below 1<<bits.Len32(OR of the side's ids so far), indexed by the id,
// as long as that is at most 2·nv counts, where nv is the window size.
// At that bound the array holds no more bytes than a sorted window of
// nv packets (16 per packet). A side whose ids pass the bound counts
// the rest of its window in (id, count) pairs: its dense counts carry
// over as pairs, each later packet adds one, and the first read sorts
// the pairs through the package's radix sort, carrying the counts, and
// sums each id's run.
//
// Its totals equal the Builder's ForEachSourcePacket and
// ForEachDestinationPacket reductions of the same packets, and like
// them it visits ids in ascending order. A Reset keeps every buffer's
// capacity, so a reused counter's later windows of the same shape
// allocate nothing. NodeCounter is not safe for concurrent use: a read
// mutates it.
type NodeCounter struct {
	src, dst     nodeCounts // packets per source / per destination
	srcOn, dstOn bool
	limit        uint64 // the most dense counts a side holds: 2·nv
	total        int64
}

// NewNodeCounter returns an empty counter for windows of nv packets, of
// the sides selected: source packets when src is set, destination
// packets when dst is set. With neither it counts packets in total
// only.
func NewNodeCounter(nv int64, src, dst bool) *NodeCounter {
	return &NodeCounter{srcOn: src, dstOn: dst, limit: 2 * uint64(max(nv, 0))}
}

// AddPairs accumulates packed (src<<32 | dst) link keys, one packet each.
func (c *NodeCounter) AddPairs(keys []uint64) {
	if c.srcOn || c.dstOn {
		var or uint64
		for _, k := range keys {
			or |= k
		}
		if c.srcOn {
			c.src.add(keys, 32, uint32(or>>32), c.limit)
		}
		if c.dstOn {
			c.dst.add(keys, 0, uint32(or), c.limit)
		}
	}
	c.total += int64(len(keys))
}

// Total returns the number of packets accumulated so far.
func (c *NodeCounter) Total() int64 { return c.total }

// Reset empties the counter for reuse, retaining buffer capacity.
func (c *NodeCounter) Reset() {
	c.src.reset()
	c.dst.reset()
	c.total = 0
}

// ForEachSourcePacket calls f for every source and its packet total, in
// ascending id order. It panics if the counter does not count sources.
func (c *NodeCounter) ForEachSourcePacket(f func(id uint32, n int64)) {
	if !c.srcOn {
		panic("spmat: NodeCounter does not count source packets")
	}
	c.src.forEach(f)
}

// ForEachDestinationPacket calls f for every destination and its packet
// total, in ascending id order. It panics if the counter does not count
// destinations.
func (c *NodeCounter) ForEachDestinationPacket(f func(id uint32, n int64)) {
	if !c.dstOn {
		panic("spmat: NodeCounter does not count destination packets")
	}
	c.dst.forEach(f)
}

// nodeCounts is one side's packet totals: dense by id, or, once the
// side is wide, (id, count) pairs. A wide side's dense array is empty.
type nodeCounts struct {
	or    uint32  // OR of the side's ids this window
	dense []int64 // packets by id, 1<<bits.Len32(or) long; zero past its length
	wide  bool    // the ids passed the dense bound: count in pairs

	// Once wide: one (id, count) pair per carried id or later packet;
	// once settled, unique ids ascending with their summed counts.
	ids, counts []uint64
	settled     bool
	tmp         []uint64 // radix scratch for the pairs
	sorter      radixSort
}

// add counts one packet at the id uint32(k >> shift) of every packed
// key k (shift 32 counts sources, 0 destinations); or is the OR of
// those ids, and limit the most dense counts the side may hold.
func (s *nodeCounts) add(keys []uint64, shift uint, or uint32, limit uint64) {
	if len(keys) == 0 {
		return
	}
	s.or |= or
	if !s.wide {
		n := uint64(1) << bits.Len32(s.or)
		if n <= limit {
			if n > uint64(len(s.dense)) {
				s.growDense(int(n))
			}
			d := s.dense
			for _, k := range keys {
				d[uint32(k>>shift)]++
			}
			return
		}
		s.widen()
	}
	s.settled = false
	n := len(s.ids)
	if m := n + len(keys); m > cap(s.ids) {
		c := max(m, 2*cap(s.ids))
		s.ids = append(make([]uint64, 0, c), s.ids...)
		s.counts = append(make([]uint64, 0, c), s.counts...)
	}
	s.ids, s.counts = s.ids[:n+len(keys)], s.counts[:n+len(keys)]
	for i, k := range keys {
		s.ids[n+i], s.counts[n+i] = k>>shift&math.MaxUint32, 1
	}
}

// growDense lengthens the dense array to n counts, reusing its
// capacity, which is zero past the current length.
func (s *nodeCounts) growDense(n int) {
	if n <= cap(s.dense) {
		s.dense = s.dense[:n]
		return
	}
	d := make([]int64, n)
	copy(d, s.dense)
	s.dense = d
}

// widen switches the side to pairs, carrying its dense counts over.
func (s *nodeCounts) widen() {
	s.wide = true
	for id, n := range s.dense {
		if n != 0 {
			s.ids = append(s.ids, uint64(id))
			s.counts = append(s.counts, uint64(n))
		}
	}
	clear(s.dense)
	s.dense = s.dense[:0]
}

// settle sorts a wide side's pairs by id, carrying their counts, and
// collapses each id's run into one pair holding its total.
func (s *nodeCounts) settle() {
	if !s.wide || s.settled {
		return
	}
	s.settled = true
	n := len(s.ids)
	s.tmp = slices.Grow(s.tmp[:0], 2*n)[:2*n]
	ids, counts := s.sorter.sort(uint(bits.Len32(s.or)), s.ids, s.tmp[:n], s.counts, s.tmp[n:])
	u := 0
	for i := 0; i < n; u++ {
		id, c, j := ids[i], counts[i], i+1
		for ; j < n && ids[j] == id; j++ {
			c += counts[j]
		}
		s.ids[u], s.counts[u] = id, c // u <= i: safe when ids is s.ids
		i = j
	}
	s.ids, s.counts = s.ids[:u], s.counts[:u]
}

// forEach calls f for every counted id and its total, in ascending id
// order.
func (s *nodeCounts) forEach(f func(id uint32, n int64)) {
	s.settle()
	for id, n := range s.dense {
		if n != 0 {
			f(uint32(id), n)
		}
	}
	for i, id := range s.ids {
		f(uint32(id), int64(s.counts[i]))
	}
}

// reset empties the side for the next window, clearing the used dense
// prefix and keeping every buffer's capacity.
func (s *nodeCounts) reset() {
	clear(s.dense)
	s.dense = s.dense[:0]
	s.ids, s.counts = s.ids[:0], s.counts[:0]
	s.or, s.wide, s.settled = 0, false, false
}
