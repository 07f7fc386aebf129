package workload

import (
	"loosesim/internal/isa"
	"loosesim/internal/snap"
)

// Snapshot encodes the generator's complete mutable state into w
// (byte-stable; part of the machine checkpoint format): the random
// source, the destination ring, hot-value and chain state, memory
// stream offsets and page walk, recent stores, branch pattern counters
// and the stream position. The profile, seed-derived tables and memBase
// are construction parameters, so Restore expects a generator built by
// NewGenerator from the same profile.
func (g *Generator) Snapshot(w *snap.Writer) {
	w.Int(g.rng.tap)
	w.Int(g.rng.feed)
	for _, v := range g.rng.vec {
		w.I64(v)
	}

	for _, r := range g.ring {
		w.U16(uint16(r))
	}
	w.Int(g.ringLen)
	w.Int(g.head)
	w.U16(uint16(g.nextDest))
	w.U16(uint16(g.lastDest))

	w.U64(g.writes)
	w.U16(uint16(g.hotVal))
	w.Int(g.hotValAge)
	w.U16(uint16(g.chainReg))
	w.Int(g.chainAge)

	w.U64s(g.streams)
	w.U64(g.pageWalk)

	for _, a := range g.recentStores {
		w.U64(a)
	}
	w.Int(g.recentStoreLen)
	w.Int(g.recentStoreCur)

	for _, c := range g.patternCount {
		w.U32(c)
	}
	w.U64(g.generated)
}

// Restore overwrites g's mutable state with state encoded by Snapshot.
// Every index is range-checked and every register must be a real
// architectural register or RegInvalid (the next destination must be a
// real non-global one); a violation latches snap.ErrCorrupt on r, and g
// must then be discarded.
func (g *Generator) Restore(r *snap.Reader) {
	g.rng.tap = r.Int()
	g.rng.feed = r.Int()
	for i := range g.rng.vec {
		g.rng.vec[i] = r.I64()
	}
	if uint(g.rng.tap) >= rngLen || uint(g.rng.feed) >= rngLen {
		r.Failf("generator: rng tap/feed %d/%d out of [0,%d)", g.rng.tap, g.rng.feed, rngLen)
	}

	for i := range g.ring {
		g.ring[i] = isa.Reg(r.U16())
		if !regOrInvalid(g.ring[i]) {
			r.Failf("generator: ring[%d] register %d out of range", i, g.ring[i])
		}
	}
	g.ringLen = r.Int()
	g.head = r.Int()
	if uint(g.ringLen) > ringSize || uint(g.head) >= ringSize {
		r.Failf("generator: ring len/head %d/%d out of range for %d slots", g.ringLen, g.head, ringSize)
	}
	g.nextDest = isa.Reg(r.U16())
	if g.nextDest < isa.NumGlobalRegs || !g.nextDest.Valid() {
		r.Failf("generator: next destination %d outside [%d,%d)", g.nextDest, isa.NumGlobalRegs, isa.NumArchRegs)
	}
	g.lastDest = isa.Reg(r.U16())

	g.writes = r.U64()
	g.hotVal = isa.Reg(r.U16())
	g.hotValAge = r.Int()
	g.chainReg = isa.Reg(r.U16())
	g.chainAge = r.Int()
	if !regOrInvalid(g.lastDest) || !regOrInvalid(g.hotVal) || !regOrInvalid(g.chainReg) {
		r.Failf("generator: register out of range: last=%d hot=%d chain=%d", g.lastDest, g.hotVal, g.chainReg)
	}

	streams := r.U64s(g.prof.NumStreams)
	if r.Err() == nil && len(streams) != g.prof.NumStreams {
		r.Failf("generator: %d memory streams, profile %s has %d", len(streams), g.prof.Name, g.prof.NumStreams)
	}
	copy(g.streams, streams)
	g.pageWalk = r.U64()

	for i := range g.recentStores {
		g.recentStores[i] = r.U64()
	}
	g.recentStoreLen = r.Int()
	g.recentStoreCur = r.Int()
	if uint(g.recentStoreLen) > uint(len(g.recentStores)) || uint(g.recentStoreCur) >= uint(len(g.recentStores)) {
		r.Failf("generator: recent-store len/cursor %d/%d out of range for %d slots",
			g.recentStoreLen, g.recentStoreCur, len(g.recentStores))
	}

	for i := range g.patternCount {
		g.patternCount[i] = r.U32()
	}
	g.generated = r.U64()
	g.slot = g.generated % uint64(g.prof.CodeFootprint)
}

// regOrInvalid accepts a real architectural register or the RegInvalid
// sentinel.
func regOrInvalid(r isa.Reg) bool { return r.Valid() || r == isa.RegInvalid }
