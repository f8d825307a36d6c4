package spmat

// NodeCounter accumulates a window's per-node packet totals straight
// from packed (src<<32 | dst) link keys: the row sums At·1 (source
// packets) and/or the column sums 1ᵀAt (destination packets), one
// flat-table probe per packet for each side it counts. Neither sum needs
// the link-level matrix At, so a window whose readers want nothing else
// keeps no keys and sorts nothing. Unique links, fan-out and fan-in are
// not recoverable from node totals; a window that reads any of them
// accumulates into a Builder instead.
//
// Its totals equal the Builder's ForEachSourcePacket and
// ForEachDestinationPacket reductions of the same packets: both are
// order-independent integer sums. A Reset keeps the tables' capacity
// warm across windows. NodeCounter is not safe for concurrent use.
type NodeCounter struct {
	src, dst     flatTable // packets per source / per destination
	srcOn, dstOn bool
	total        int64
}

// NewNodeCounter returns an empty counter of the sides selected: source
// packets when src is set, destination packets when dst is set. With
// neither it counts packets in total only.
func NewNodeCounter(src, dst bool) *NodeCounter {
	return &NodeCounter{srcOn: src, dstOn: dst}
}

// AddPairs accumulates packed (src<<32 | dst) link keys, one packet each,
// through the flat tables' strided-prefetch batch loop.
func (c *NodeCounter) AddPairs(keys []uint64) {
	if c.srcOn {
		c.src.addBatch(keys, 32)
	}
	if c.dstOn {
		c.dst.addBatch(keys, 0)
	}
	c.total += int64(len(keys))
}

// Total returns the number of packets accumulated so far.
func (c *NodeCounter) Total() int64 { return c.total }

// Reset empties the counter for reuse, retaining table capacity.
func (c *NodeCounter) Reset() {
	c.src.reset()
	c.dst.reset()
	c.total = 0
}

// ForEachSourcePacket calls f for every source and its packet total, in
// unspecified order. It panics if the counter does not count sources.
func (c *NodeCounter) ForEachSourcePacket(f func(id uint32, n int64)) {
	if !c.srcOn {
		panic("spmat: NodeCounter does not count source packets")
	}
	c.src.forEach(f)
}

// ForEachDestinationPacket calls f for every destination and its packet
// total, in unspecified order. It panics if the counter does not count
// destinations.
func (c *NodeCounter) ForEachDestinationPacket(f func(id uint32, n int64)) {
	if !c.dstOn {
		panic("spmat: NodeCounter does not count destination packets")
	}
	c.dst.forEach(f)
}
