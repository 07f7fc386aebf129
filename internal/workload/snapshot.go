package workload

import (
	"loosesim/internal/isa"
	"loosesim/internal/snap"
)

// Sync encodes or decodes the generator's complete mutable state
// (byte-stable; part of the machine checkpoint format): the random
// source, the destination ring, hot-value and chain state, memory stream
// offsets and page walk, recent stores, branch pattern counters and the
// stream position. The profile, seed-derived tables and memBase are
// construction parameters, so decoding expects a generator built by
// NewGenerator from the same profile. Decoding range-checks every index
// and requires every register to be a real architectural register or
// RegInvalid (the next destination must be a real non-global one); a
// violation latches snap.ErrCorrupt, and g must then be discarded.
func (g *Generator) Sync(c *snap.Codec) {
	c.Int(&g.rng.tap)
	c.Int(&g.rng.feed)
	for i := range g.rng.vec {
		c.I64(&g.rng.vec[i])
	}

	for i := range g.ring {
		c.U16((*uint16)(&g.ring[i]))
	}
	c.Int(&g.ringLen)
	c.Int(&g.head)
	c.U16((*uint16)(&g.nextDest))
	c.U16((*uint16)(&g.lastDest))

	c.U64(&g.writes)
	c.U16((*uint16)(&g.hotVal))
	c.Int(&g.hotValAge)
	c.U16((*uint16)(&g.chainReg))
	c.Int(&g.chainAge)

	c.U64s(g.streams)
	c.U64(&g.pageWalk)

	for i := range g.recentStores {
		c.U64(&g.recentStores[i])
	}
	c.Int(&g.recentStoreLen)
	c.Int(&g.recentStoreCur)

	for i := range g.patternCount {
		c.U32(&g.patternCount[i])
	}
	c.U64(&g.generated)
	if !c.Decoding() {
		return
	}

	g.slot = g.generated % uint64(g.prof.CodeFootprint)
	if uint(g.rng.tap) >= rngLen || uint(g.rng.feed) >= rngLen {
		c.Failf("generator: rng tap/feed %d/%d out of [0,%d)", g.rng.tap, g.rng.feed, rngLen)
	}
	for i, r := range g.ring {
		if !regOrInvalid(r) {
			c.Failf("generator: ring[%d] register %d out of range", i, r)
		}
	}
	if uint(g.ringLen) > ringSize || uint(g.head) >= ringSize {
		c.Failf("generator: ring len/head %d/%d out of range for %d slots", g.ringLen, g.head, ringSize)
	}
	if g.nextDest < isa.NumGlobalRegs || !g.nextDest.Valid() {
		c.Failf("generator: next destination %d outside [%d,%d)", g.nextDest, isa.NumGlobalRegs, isa.NumArchRegs)
	}
	if !regOrInvalid(g.lastDest) || !regOrInvalid(g.hotVal) || !regOrInvalid(g.chainReg) {
		c.Failf("generator: register out of range: last=%d hot=%d chain=%d", g.lastDest, g.hotVal, g.chainReg)
	}
	if uint(g.recentStoreLen) > uint(len(g.recentStores)) || uint(g.recentStoreCur) >= uint(len(g.recentStores)) {
		c.Failf("generator: recent-store len/cursor %d/%d out of range for %d slots",
			g.recentStoreLen, g.recentStoreCur, len(g.recentStores))
	}
}

// regOrInvalid accepts a real architectural register or the RegInvalid
// sentinel.
func regOrInvalid(r isa.Reg) bool { return r.Valid() || r == isa.RegInvalid }
