// Package bpred implements the branch direction predictors used by the
// simulated front end. The branch resolution loop — the paper's canonical
// loose loop — is driven entirely by how often these predictors are wrong,
// so the predictors are real table-based hardware models rather than
// injected error rates: a bimodal predictor, a gshare predictor, and an
// Alpha 21264-style tournament predictor combining local and global history.
package bpred

import (
	"fmt"

	"loosesim/internal/snap"
)

// Predictor predicts conditional branch directions. Implementations are
// deterministic state machines updated in program order at branch
// resolution.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the actual outcome of the branch
	// at pc.
	Update(pc uint64, taken bool)
	// Name identifies the predictor for reports.
	Name() string
	// Sync encodes or decodes the predictor's mutable state for a machine
	// checkpoint. Decoding requires a predictor built with the snapshot's
	// geometry.
	Sync(c *snap.Codec)
}

// counter2 is a 2-bit saturating counter; values 0..3, taken when >= 2.
type counter2 uint8

func (c counter2) taken() bool { return c >= 2 }

func (c counter2) update(taken bool) counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Bimodal is a PC-indexed table of 2-bit saturating counters.
type Bimodal struct {
	table []counter2
	mask  uint64 // simlint:nosync geometry
}

// NewBimodal returns a bimodal predictor with the given number of entries,
// which must be a power of two.
func NewBimodal(entries int) *Bimodal {
	checkPow2(entries)
	t := make([]counter2, entries)
	for i := range t {
		t[i] = 2 // weakly taken
	}
	return &Bimodal{table: t, mask: uint64(entries - 1)}
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.index(pc)].taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].update(taken)
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return fmt.Sprintf("bimodal-%d", len(b.table)) }

// GShare XORs global branch history into the PC index of a counter table.
type GShare struct {
	table   []counter2
	mask    uint64 // simlint:nosync geometry
	history uint64
	histLen uint
}

// NewGShare returns a gshare predictor with the given table size (power of
// two) and history length in bits.
func NewGShare(entries int, histBits uint) *GShare {
	checkPow2(entries)
	t := make([]counter2, entries)
	for i := range t {
		t[i] = 2
	}
	return &GShare{table: t, mask: uint64(entries - 1), histLen: histBits}
}

func (g *GShare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict implements Predictor.
func (g *GShare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update implements Predictor. It trains the counter and shifts the outcome
// into the global history register.
func (g *GShare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= (1 << g.histLen) - 1
}

// Name implements Predictor.
func (g *GShare) Name() string { return fmt.Sprintf("gshare-%d-h%d", len(g.table), g.histLen) }

// Tournament is a McFarling-style hybrid: a local predictor (per-branch
// history indexing a counter table), a global predictor (path history XORed
// with the PC indexing a counter table, gshare-style, to reduce
// interference), and a PC-indexed choice predictor trained toward whichever
// component was correct.
type Tournament struct {
	localHist  []uint16
	localPred  []counter2
	globalPred []counter2
	choice     []counter2
	history    uint64

	lhMask   uint64 // simlint:nosync geometry
	lpMask   uint64 // simlint:nosync geometry
	gMask    uint64 // simlint:nosync geometry
	histBits uint
	lhBits   uint
}

// NewTournament builds the hybrid predictor. localEntries sizes the
// per-branch history table, localCounters and globalEntries size the two
// counter tables; all must be powers of two.
func NewTournament(localEntries, localCounters, globalEntries int, histBits, localHistBits uint) *Tournament {
	checkPow2(localEntries)
	checkPow2(localCounters)
	checkPow2(globalEntries)
	t := &Tournament{
		localHist:  make([]uint16, localEntries),
		localPred:  make([]counter2, localCounters),
		globalPred: make([]counter2, globalEntries),
		choice:     make([]counter2, globalEntries),
		lhMask:     uint64(localEntries - 1),
		lpMask:     uint64(localCounters - 1),
		gMask:      uint64(globalEntries - 1),
		histBits:   histBits,
		lhBits:     localHistBits,
	}
	for i := range t.localPred {
		t.localPred[i] = 2
	}
	for i := range t.globalPred {
		t.globalPred[i] = 2
	}
	for i := range t.choice {
		t.choice[i] = 1 // weakly prefer local until global history pays off
	}
	return t
}

// NewDefaultTournament returns the configuration used by the base machine:
// 1K local histories, 1K local counters, 4K global counters, 12 bits of
// global history, 10 bits of local history (a scaled 21264 arrangement).
func NewDefaultTournament() *Tournament {
	return NewTournament(1024, 1024, 4096, 12, 10)
}

func (t *Tournament) localIndex(pc uint64) uint64 {
	return (pc >> 2) & t.lhMask
}

func (t *Tournament) localPredict(pc uint64) bool {
	h := uint64(t.localHist[t.localIndex(pc)]) & t.lpMask
	return t.localPred[h].taken()
}

func (t *Tournament) globalIndex(pc uint64) uint64 { return (t.history ^ (pc >> 2)) & t.gMask }

func (t *Tournament) choiceIndex(pc uint64) uint64 { return (pc >> 2) & t.gMask }

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint64) bool {
	if t.choice[t.choiceIndex(pc)].taken() {
		return t.globalPred[t.globalIndex(pc)].taken()
	}
	return t.localPredict(pc)
}

// Update implements Predictor.
func (t *Tournament) Update(pc uint64, taken bool) {
	hist := &t.localHist[t.localIndex(pc)]
	lp := &t.localPred[uint64(*hist)&t.lpMask]
	gp := &t.globalPred[t.globalIndex(pc)]

	localCorrect := lp.taken() == taken
	globalCorrect := gp.taken() == taken

	// Train the choice predictor toward whichever component was right.
	if localCorrect != globalCorrect {
		ci := t.choiceIndex(pc)
		t.choice[ci] = t.choice[ci].update(globalCorrect)
	}
	*lp = lp.update(taken)
	*gp = gp.update(taken)

	// Shift the outcome into both history registers.
	h := *hist << 1
	if taken {
		h |= 1
	}
	*hist = h & uint16((1<<t.lhBits)-1)

	t.history <<= 1
	if taken {
		t.history |= 1
	}
	t.history &= (1 << t.histBits) - 1
}

// Name implements Predictor.
func (t *Tournament) Name() string { return "tournament" }

// Static always predicts a fixed direction; useful as a baseline and for
// tests that need deterministic front-end behaviour.
type Static struct {
	// Taken is the direction predicted for every branch.
	Taken bool
}

// Predict implements Predictor.
func (s *Static) Predict(uint64) bool { return s.Taken }

// Update implements Predictor (no state).
func (s *Static) Update(uint64, bool) {}

// Name implements Predictor.
func (s *Static) Name() string {
	if s.Taken {
		return "static-taken"
	}
	return "static-not-taken"
}

// BTB is a direct-mapped branch target buffer with tags. The trace-driven
// front end always knows real targets, so the BTB only contributes hit/miss
// statistics, but it is modelled faithfully for completeness.
type BTB struct {
	tags    []uint64
	targets []uint64
	valid   []bool
	mask    uint64 // simlint:nosync geometry

	hits, misses uint64
}

// NewBTB returns a BTB with the given number of entries (power of two).
func NewBTB(entries int) *BTB {
	checkPow2(entries)
	return &BTB{
		tags:    make([]uint64, entries),
		targets: make([]uint64, entries),
		valid:   make([]bool, entries),
		mask:    uint64(entries - 1),
	}
}

// Lookup returns the predicted target for pc and whether the BTB hit.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	i := (pc >> 2) & b.mask
	if b.valid[i] && b.tags[i] == pc {
		b.hits++
		return b.targets[i], true
	}
	b.misses++
	return 0, false
}

// Insert records the taken target of the branch at pc.
func (b *BTB) Insert(pc, target uint64) {
	i := (pc >> 2) & b.mask
	b.tags[i] = pc
	b.targets[i] = target
	b.valid[i] = true
}

// HitRate returns the fraction of lookups that hit.
func (b *BTB) HitRate() float64 {
	total := b.hits + b.misses
	if total == 0 {
		return 0
	}
	return float64(b.hits) / float64(total)
}

func checkPow2(n int) {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("bpred: table size %d is not a power of two", n))
	}
}
