package mem

import "loosesim/internal/snap"

// lineBytes is the encoded size of one line: tag, valid byte, stamp.
const lineBytes = 8 + 1 + 8

// syncLines encodes or decodes a line slice (cache set or TLB array) in
// place.
func syncLines(c *snap.Codec, lines []line) {
	for i := range lines {
		c.U64(&lines[i].tag)
		c.Bool(&lines[i].valid)
		c.U64(&lines[i].used)
	}
}

// Sync encodes or decodes the cache's mutable state: every line's
// tag/valid/LRU stamp, the LRU clock, and the hit/miss statistics.
// Geometry is config, rebuilt by NewCache: c must have been constructed
// with the snapshot's geometry.
func (c *Cache) Sync(cd *snap.Codec) {
	cd.Fixed(len(c.sets))
	for _, set := range c.sets {
		syncLines(cd, set)
	}
	cd.U64(&c.clock)
	cd.U64(&c.hits)
	cd.U64(&c.misses)
}

// Sync encodes or decodes the TLB's mutable state. Decoding rebuilds the
// index and replacement list from it; a state no run could reach — a
// page in two valid entries, a stamp after the clock — latches
// snap.ErrCorrupt.
func (t *TLB) Sync(c *snap.Codec) {
	c.Fixed(len(t.entries))
	syncLines(c, t.entries)
	c.U64(&t.clock)
	c.U64(&t.hits)
	c.U64(&t.missesCt)
	if c.Decoding() {
		if err := t.relink(); err != nil {
			c.Failf("tlb: %v", err)
		}
	}
}

// Sync encodes or decodes the hierarchy: both cache levels, the TLB, the
// current-cycle bank-busy tracking, and the access statistics. h must
// have been constructed by NewHierarchy with the snapshot's config.
func (h *Hierarchy) Sync(c *snap.Codec) {
	h.l1.Sync(c)
	h.l2.Sync(c)
	h.tlb.Sync(c)
	c.I64(&h.bankCycle)
	c.U64(&h.bankMask)
	c.U64(&h.loads)
	c.U64(&h.stores)
	c.U64(&h.bankConflictsCt)
}

// SnapshotSize returns the length of Sync's encoding. The geometry fixes
// it, so a checkpoint can size its buffer before encoding.
func (h *Hierarchy) SnapshotSize() int {
	cache := func(c *Cache) int { return 4 + len(c.sets)*c.cfg.Ways*lineBytes + 3*8 }
	tlb := 4 + len(h.tlb.entries)*lineBytes + 3*8
	return cache(h.l1) + cache(h.l2) + tlb + 5*8
}

// WarmLoad touches the TLB and cache state for one load without the
// cycle-coupled bank-conflict tracking or the load/store statistics —
// the functional-warming fast path between sample windows. Cache and TLB
// hit/miss counters do advance: warming exists exactly to carry that
// state forward.
func (h *Hierarchy) WarmLoad(addr uint64) {
	h.tlb.Access(addr)
	if !h.l1.Access(addr) {
		h.l2.Access(addr)
	}
}

// WarmStore is WarmLoad's store-side twin.
func (h *Hierarchy) WarmStore(addr uint64) {
	h.tlb.Access(addr)
	if !h.l1.Access(addr) {
		h.l2.Access(addr)
	}
}
