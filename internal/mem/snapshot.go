package mem

import "loosesim/internal/snap"

// lineBytes is the encoded size of one line: tag, valid byte, stamp.
const lineBytes = 8 + 1 + 8

// snapshotLines encodes a line slice (cache set or TLB array).
func snapshotLines(w *snap.Writer, lines []line) {
	for _, ln := range lines {
		w.U64(ln.tag)
		w.Bool(ln.valid)
		w.U64(ln.used)
	}
}

// restoreLines overwrites a line slice in place.
func restoreLines(r *snap.Reader, lines []line) {
	for i := range lines {
		lines[i].tag = r.U64()
		lines[i].valid = r.Bool()
		lines[i].used = r.U64()
	}
}

// Snapshot encodes the cache's mutable state: every line's tag/valid/LRU
// stamp, the LRU clock, and the hit/miss statistics. Geometry is config,
// rebuilt by NewCache.
func (c *Cache) Snapshot(w *snap.Writer) {
	w.Len(len(c.sets))
	for _, set := range c.sets {
		snapshotLines(w, set)
	}
	w.U64(c.clock)
	w.U64(c.hits)
	w.U64(c.misses)
}

// Restore overwrites c's mutable state with state encoded by Snapshot.
// c must have been constructed by NewCache with the same geometry.
func (c *Cache) Restore(r *snap.Reader) {
	n := r.Len(len(c.sets))
	if n != len(c.sets) {
		r.Failf("cache: %d sets, want %d", n, len(c.sets))
		return
	}
	for _, set := range c.sets {
		restoreLines(r, set)
	}
	c.clock = r.U64()
	c.hits = r.U64()
	c.misses = r.U64()
}

// Snapshot encodes the TLB's mutable state.
func (t *TLB) Snapshot(w *snap.Writer) {
	w.Len(len(t.entries))
	snapshotLines(w, t.entries)
	w.U64(t.clock)
	w.U64(t.hits)
	w.U64(t.missesCt)
}

// Restore overwrites t's mutable state with state encoded by Snapshot and
// rebuilds the index and replacement list from it. A state no run could
// reach — a page in two valid entries, a stamp after the clock — latches
// snap.ErrCorrupt.
func (t *TLB) Restore(r *snap.Reader) {
	n := r.Len(len(t.entries))
	if n != len(t.entries) {
		r.Failf("tlb: %d entries, want %d", n, len(t.entries))
		return
	}
	restoreLines(r, t.entries)
	t.clock = r.U64()
	t.hits = r.U64()
	t.missesCt = r.U64()
	if err := t.relink(); err != nil {
		r.Failf("tlb: %v", err)
	}
}

// Snapshot encodes the hierarchy: both cache levels, the TLB, the
// current-cycle bank-busy tracking, and the access statistics.
func (h *Hierarchy) Snapshot(w *snap.Writer) {
	h.l1.Snapshot(w)
	h.l2.Snapshot(w)
	h.tlb.Snapshot(w)
	w.I64(h.bankCycle)
	w.U64(h.bankMask)
	w.U64(h.loads)
	w.U64(h.stores)
	w.U64(h.bankConflictsCt)
}

// SnapshotSize returns the length of Snapshot's encoding. The geometry
// fixes it, so a checkpoint can size its buffer before encoding.
func (h *Hierarchy) SnapshotSize() int {
	cache := func(c *Cache) int { return 4 + len(c.sets)*c.cfg.Ways*lineBytes + 3*8 }
	tlb := 4 + len(h.tlb.entries)*lineBytes + 3*8
	return cache(h.l1) + cache(h.l2) + tlb + 5*8
}

// Restore overwrites h's mutable state with state encoded by Snapshot.
// h must have been constructed by NewHierarchy with the same config.
func (h *Hierarchy) Restore(r *snap.Reader) {
	h.l1.Restore(r)
	h.l2.Restore(r)
	h.tlb.Restore(r)
	h.bankCycle = r.I64()
	h.bankMask = r.U64()
	h.loads = r.U64()
	h.stores = r.U64()
	h.bankConflictsCt = r.U64()
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
