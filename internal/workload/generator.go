package workload

import "loosesim/internal/isa"

// Branch-site population sizes. Sites are static branch PCs; the generator
// draws each dynamic branch from one of three behavioural pools with a
// geometrically skewed site choice, mirroring real programs where a handful
// of hot loop branches dominate the dynamic stream.
const (
	numBiasedSites  = 64
	numPatternSites = 32
	numNoisySites   = 32

	// siteSkewP is the geometric parameter of the hot-site skew.
	siteSkewP = 0.15

	// biasedFlip is the probability a strongly biased site goes against
	// its direction (its irreducible mispredict floor).
	biasedFlip = 0.02

	branchPCBase = uint64(0x10_0000)
	codePCBase   = uint64(0x40_0000)
)

// ringSize bounds dependency distances; destinations rotate round-robin
// through the non-global architectural registers, so this is the number of
// distinct outstanding values.
const ringSize = isa.NumArchRegs - isa.NumGlobalRegs

// Generator produces one thread's deterministic instruction stream from a
// profile. Two generators with the same profile and seed produce identical
// streams.
type Generator struct {
	prof Profile
	rng  rngSource

	// mix is the profile's instruction mix in pickOp's draw order, built
	// once by NewGenerator.
	mix [7]mixEntry // simlint:nosync derived from prof

	// Destination bookkeeping: ring of the most recent register-writing
	// instructions' destinations, newest at index head-1.
	ring     [ringSize]isa.Reg
	ringLen  int
	head     int
	nextDest isa.Reg
	lastDest isa.Reg

	// Hot-value state: a heavily reused recent result, rotated every
	// HotValPeriod writes and retired before its register is recycled.
	writes    uint64
	hotVal    isa.Reg
	hotValAge int

	// Serial-chain state: ChainFrac of register-writing instructions link
	// into one long dependency chain (read the previous chain element,
	// become the next). This is what makes apsi's ILP low: the chain
	// threads serially through the whole stream.
	chainReg isa.Reg
	chainAge int

	// Memory address state.
	memBase  uint64 // simlint:nosync construction parameter
	streams  []uint64
	pageWalk uint64

	// Recent store addresses, for loads that reload stored data.
	recentStores   [16]uint64
	recentStoreLen int
	recentStoreCur int

	// Branch site state.
	patternCount [numPatternSites]uint32
	patternPer   [numPatternSites]uint32 // simlint:nosync seed-derived, fixed for the generator's lifetime

	// Geometric-draw tables for the dependency-distance and hot-site
	// skew parameters, fixed for the generator's lifetime.
	depGeo  geoTable // simlint:nosync fixed for the generator's lifetime
	siteGeo geoTable // simlint:nosync fixed for the generator's lifetime

	generated uint64
	slot      uint64 // generated % CodeFootprint, kept without dividing
}

// mixEntry is one operation class and its fraction of the stream.
type mixEntry struct {
	f  float64
	op isa.OpClass
}

// NewGenerator builds a generator for prof seeded deterministically; memBase
// offsets the thread's address space so SMT threads do not share data.
func NewGenerator(prof Profile, seed int64, memBase uint64) *Generator {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		prof: prof,
		mix: [7]mixEntry{
			{prof.LoadFrac, isa.Load},
			{prof.StoreFrac, isa.Store},
			{prof.BranchFrac, isa.Branch},
			{prof.FPAddFrac, isa.FPAdd},
			{prof.FPMulFrac, isa.FPMul},
			{prof.FPDivFrac, isa.FPDiv},
			{prof.IntMulFrac, isa.IntMul},
		},
		nextDest: isa.NumGlobalRegs,
		lastDest: isa.RegInvalid,
		hotVal:   isa.RegInvalid,
		chainReg: isa.RegInvalid,
		memBase:  memBase,

		depGeo:  newGeoTable(prof.DepGeoP),
		siteGeo: newGeoTable(siteSkewP),
	}
	g.rng.Seed(seed)
	for i := 0; i < prof.NumStreams; i++ {
		g.streams = append(g.streams, uint64(i)*(prof.StreamBytes/uint64(prof.NumStreams)))
	}
	for i := range g.patternPer {
		g.patternPer[i] = 4 + uint32(i%5) // loop trip counts 4..8
	}
	return g
}

// Generated returns the number of instructions produced so far.
func (g *Generator) Generated() uint64 { return g.generated }

// Next produces the next instruction of the stream.
func (g *Generator) Next() isa.Inst {
	g.generated++
	// PCs cycle through the static code footprint so that a PC-indexed
	// structure sees recurring instruction addresses (loop structure).
	g.slot++
	if g.slot == uint64(g.prof.CodeFootprint) {
		g.slot = 0
	}
	op := g.pickOp()
	in := isa.Inst{PC: codePCBase + g.slot*4, Op: op, Dest: isa.RegInvalid}
	in.Src[0], in.Src[1] = isa.RegInvalid, isa.RegInvalid

	switch op {
	case isa.Load:
		in.Src[0] = g.pickAddrSource()
		// Whether a load reloads recently stored data is a property of
		// the *static* instruction (a spill reload always reloads), so it
		// is decided by the PC slot, not per dynamic instance — this is
		// what makes memory dependences learnable by PC-indexed
		// predictors such as the store-wait table.
		if g.recentStoreLen > 0 && g.reloadSlot() {
			in.Addr = g.recentStores[g.rng.Intn(g.recentStoreLen)]
		} else {
			in.Addr = g.pickAddr()
		}
		in.Dest = g.allocDest()
	case isa.Store:
		in.Src[0] = g.pickAddrSource()
		in.Src[1] = g.pickSource()
		in.Addr = g.pickAddr()
		g.recentStores[g.recentStoreCur] = in.Addr
		g.recentStoreCur = (g.recentStoreCur + 1) % len(g.recentStores)
		if g.recentStoreLen < len(g.recentStores) {
			g.recentStoreLen++
		}
	case isa.Branch:
		// Branch conditions often depend on the serial chain (loop
		// counters, reductions); this is what gives su2cor-like programs
		// long branch resolution latencies via queuing delays even with
		// few mispredicts.
		if g.rng.Float64() < g.prof.ChainFrac && g.chainReg.Valid() {
			in.Src[0] = g.chainReg
		} else {
			in.Src[0] = g.pickSource()
		}
		in.PC, in.Taken = g.pickBranch()
	case isa.Nop:
	default: // register-writing arithmetic
		chainLink := g.rng.Float64() < g.prof.ChainFrac && g.chainReg.Valid()
		if chainLink {
			in.Src[0] = g.chainReg
		} else {
			in.Src[0] = g.pickSource()
		}
		if g.rng.Float64() < g.prof.TwoSrcFrac {
			in.Src[1] = g.pickSource()
		}
		in.Dest = g.allocDest()
		if chainLink || !g.chainReg.Valid() {
			g.chainReg = in.Dest
			g.chainAge = 0
		}
	}
	return in
}

// reloadSlot reports whether the current PC slot is a static reload site,
// using a hash of the slot index so the choice is a stable property of the
// instruction address covering StoreReloadFrac of slots.
func (g *Generator) reloadSlot() bool {
	h := (g.slot*2654435761 + 97) & 0xFFFFFFFF
	return float64(h)/float64(1<<32) < g.prof.StoreReloadFrac
}

// pickOp draws the operation class from the profile's mix. Subtracting
// each fraction in turn (rather than comparing against cumulative sums,
// which round differently) keeps the draw-to-class mapping fixed.
func (g *Generator) pickOp() isa.OpClass {
	r := g.rng.Float64()
	for i := range g.mix {
		c := &g.mix[i]
		if r < c.f {
			return c.op
		}
		r -= c.f
	}
	return isa.IntALU
}

// allocDest assigns the next round-robin destination register, keeping each
// architectural register live for ringSize writes so dependency distances
// up to ringSize are faithful.
func (g *Generator) allocDest() isa.Reg {
	d := g.nextDest
	g.nextDest++
	if g.nextDest >= isa.NumArchRegs {
		g.nextDest = isa.NumGlobalRegs
	}
	g.ring[g.head] = d
	g.head = (g.head + 1) % ringSize
	if g.ringLen < ringSize {
		g.ringLen++
	}
	g.lastDest = d
	g.writes++
	if g.hotVal.Valid() {
		g.hotValAge++
		if g.hotValAge > ringSize-8 {
			g.hotVal = isa.RegInvalid // register about to be recycled
		}
	}
	if g.prof.HotValFrac > 0 && g.writes%uint64(g.prof.HotValPeriod) == 0 {
		g.hotVal = d
		g.hotValAge = 0
	}
	if g.chainReg.Valid() {
		g.chainAge++
		if g.chainAge > ringSize-8 {
			g.chainReg = isa.RegInvalid // register about to be recycled
		}
	}
	return d
}

// pickSource selects a non-chain source register: a hot value, a global
// register, a far-back producer, or a geometric-distance recent producer.
func (g *Generator) pickSource() isa.Reg {
	p := &g.prof
	if p.HotValFrac > 0 && g.hotVal.Valid() && g.rng.Float64() < p.HotValFrac {
		return g.hotVal
	}
	r := g.rng.Float64()
	switch {
	case r < p.GlobalRegFrac || g.ringLen == 0:
		return isa.Reg(g.rng.Intn(isa.NumGlobalRegs))
	case r < p.GlobalRegFrac+p.FarSrcFrac:
		// Uniform far distance over the back half of the ring.
		lo := g.ringLen / 2
		if lo == 0 {
			lo = 1
		}
		d := lo + g.rng.Intn(g.ringLen-lo+1)
		return g.at(d)
	default:
		d := 1 + g.depGeo.draw(g.rng.Float64())
		if d > g.ringLen {
			d = g.ringLen
		}
		return g.at(d)
	}
}

// pickAddrSource selects the address register for a memory operation.
// Array bases are usually global registers; pointer chasing uses recent
// results.
func (g *Generator) pickAddrSource() isa.Reg {
	if g.rng.Float64() < 0.5 || g.ringLen == 0 {
		return isa.Reg(g.rng.Intn(isa.NumGlobalRegs))
	}
	d := 1 + g.depGeo.draw(g.rng.Float64())
	if d > g.ringLen {
		d = g.ringLen
	}
	return g.at(d)
}

// at returns the destination written d register-writing instructions ago
// (d >= 1).
func (g *Generator) at(d int) isa.Reg {
	idx := g.head - d
	for idx < 0 {
		idx += ringSize
	}
	return g.ring[idx]
}

// Region base offsets within a thread's address space; regions never
// overlap for any legal profile size.
const (
	hotBase      = uint64(0)
	midBase      = uint64(1) << 26
	streamBase   = uint64(1) << 27
	pageWalkBase = uint64(1) << 29
)

// pickAddr produces the next data address from one of the profile's four
// regions: sequential stream, random mid-sized structure, page-crossing
// walk, or hot (cache-resident) data.
func (g *Generator) pickAddr() uint64 {
	p := &g.prof
	r := g.rng.Float64()
	switch {
	case r < p.StreamFrac:
		i := g.rng.Intn(len(g.streams))
		g.streams[i] = wrapAdd(g.streams[i], p.Stride, p.StreamBytes)
		return g.memBase + streamBase + g.streams[i]
	case r < p.StreamFrac+p.MidFrac:
		off := (g.rng.Uint64() % (p.MidBytes / 8)) * 8
		return g.memBase + midBase + off
	case r < p.StreamFrac+p.MidFrac+p.PageWalkFrac:
		g.pageWalk = wrapAdd(g.pageWalk, p.PageStride, p.PageWalkSpan)
		return g.memBase + pageWalkBase + g.pageWalk
	default:
		off := (g.rng.Uint64() % (p.HotBytes / 8)) * 8
		return g.memBase + hotBase + off
	}
}

// wrapAdd returns (x+d) % m. A walk's step seldom wraps, and below m the
// remainder is the sum itself, so the division runs only on a wrap.
func wrapAdd(x, d, m uint64) uint64 {
	if s := x + d; s < m {
		return s
	}
	return (x + d) % m
}

// pickSite chooses a site index within a pool, geometrically skewed toward
// the pool's hot low-numbered sites.
func (g *Generator) pickSite(pool int) int {
	s := g.siteGeo.draw(g.rng.Float64())
	if s >= pool {
		s = g.rng.Intn(pool)
	}
	return s
}

// pickBranch selects a branch site and produces its PC and actual outcome.
func (g *Generator) pickBranch() (pc uint64, taken bool) {
	p := &g.prof
	r := g.rng.Float64()
	switch {
	case r < p.BiasedSiteFrac:
		site := g.pickSite(numBiasedSites)
		pc = branchPCBase + uint64(site)*4
		dir := site%2 == 0
		if g.rng.Float64() < biasedFlip {
			return pc, !dir
		}
		return pc, dir
	case r < p.BiasedSiteFrac+p.PatternSiteFrac:
		site := g.pickSite(numPatternSites)
		pc = branchPCBase + uint64(numBiasedSites+site)*4
		g.patternCount[site]++
		return pc, g.patternCount[site]%g.patternPer[site] != 0
	default:
		site := g.pickSite(numNoisySites)
		pc = branchPCBase + uint64(numBiasedSites+numPatternSites+site)*4
		return pc, g.rng.Intn(2) == 0
	}
}
