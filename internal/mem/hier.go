package mem

import "fmt"

// HierConfig describes the full data-memory hierarchy of the base machine.
type HierConfig struct {
	L1 CacheConfig
	L2 CacheConfig
	// MemLatency is the load-to-use latency of a main-memory access.
	MemLatency int
	// TLBEntries and PageBytes size the data TLB.
	TLBEntries int
	PageBytes  int
	// BankConflictPenalty is the extra latency a load pays when its bank
	// was already accessed this cycle.
	BankConflictPenalty int
}

// Validate reports configuration errors.
func (c HierConfig) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if c.MemLatency < 1 {
		return fmt.Errorf("mem: MemLatency = %d, must be >= 1", c.MemLatency)
	}
	if c.TLBEntries < 1 {
		return fmt.Errorf("mem: TLBEntries = %d, must be >= 1", c.TLBEntries)
	}
	if c.PageBytes < 1 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("mem: PageBytes = %d, must be a power of two", c.PageBytes)
	}
	if c.BankConflictPenalty < 0 {
		return fmt.Errorf("mem: BankConflictPenalty = %d, must be >= 0", c.BankConflictPenalty)
	}
	return nil
}

// DefaultHierConfig returns the hierarchy of the paper's base machine
// analogue: 64KB 4-way 8-bank L1 with 3-cycle load-to-use, 2MB 8-way L2 at
// 16 cycles, 150-cycle memory, and a 128-entry 8KB-page TLB.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1:                  CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, Banks: 8, HitLatency: 3},
		L2:                  CacheConfig{SizeBytes: 2 << 20, LineBytes: 64, Ways: 8, HitLatency: 16},
		MemLatency:          150,
		TLBEntries:          128,
		PageBytes:           8 << 10,
		BankConflictPenalty: 1,
	}
}

// AccessResult reports the timing outcome of one load.
type AccessResult struct {
	// Latency is the load-to-use latency in cycles.
	Latency int
	// L1Hit reports a first-level hit.
	L1Hit bool
	// L2Hit reports a second-level hit (only meaningful when !L1Hit).
	L2Hit bool
	// BankConflict reports that the L1 bank was busy this cycle, delaying
	// the access. A conflicted hit still mis-speculates the load loop,
	// because dependents were woken for the unconflicted hit latency.
	BankConflict bool
	// TLBMiss reports a data TLB miss, which the pipeline treats as a
	// memory trap (flush and refetch — the paper's memory trap loop).
	TLBMiss bool
}

// Hit reports whether the load delivered data at the speculated L1 hit
// latency, i.e. whether load-hit speculation was correct.
func (r AccessResult) Hit() bool { return r.L1Hit && !r.BankConflict }

// Hierarchy ties the cache levels, banks, and TLB together and produces the
// per-load AccessResult the pipeline consumes.
type Hierarchy struct {
	cfg HierConfig // simlint:nosync configuration, rebuilt by NewHierarchy
	l1  *Cache
	l2  *Cache
	tlb TLB

	// Bank-busy tracking for the current cycle.
	bankCycle int64
	bankMask  uint64

	loads, stores   uint64
	bankConflictsCt uint64
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	return &Hierarchy{
		cfg:       cfg,
		l1:        NewCache(cfg.L1),
		l2:        NewCache(cfg.L2),
		tlb:       newTLB(cfg.TLBEntries, cfg.PageBytes),
		bankCycle: -1,
	}
}

// L1 exposes the first-level cache for statistics.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 exposes the second-level cache for statistics.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// TLB exposes the data TLB for statistics.
func (h *Hierarchy) TLB() *TLB { return &h.tlb }

// Load performs a load access at the given cycle and returns its timing.
func (h *Hierarchy) Load(addr uint64, cycle int64) AccessResult {
	h.loads++
	var res AccessResult
	if !h.tlb.Access(addr) {
		res.TLBMiss = true
	}
	if h.cfg.L1.Banks > 1 {
		if cycle != h.bankCycle {
			h.bankCycle = cycle
			h.bankMask = 0
		}
		bit := uint64(1) << uint(h.l1.Bank(addr))
		if h.bankMask&bit != 0 {
			res.BankConflict = true
			h.bankConflictsCt++
		}
		h.bankMask |= bit
	}
	res.L1Hit = h.l1.Access(addr)
	switch {
	case res.L1Hit:
		res.Latency = h.cfg.L1.HitLatency
	default:
		res.L2Hit = h.l2.Access(addr)
		if res.L2Hit {
			res.Latency = h.cfg.L2.HitLatency
		} else {
			res.Latency = h.cfg.MemLatency
		}
	}
	if res.BankConflict {
		res.Latency += h.cfg.BankConflictPenalty
	}
	return res
}

// Store performs a store access for cache-state and statistics purposes.
// Stores produce no register result, so their latency does not feed wakeup.
func (h *Hierarchy) Store(addr uint64) {
	h.stores++
	h.tlb.Access(addr)
	if !h.l1.Access(addr) {
		h.l2.Access(addr)
	}
}

// Loads returns the number of load accesses.
func (h *Hierarchy) Loads() uint64 { return h.loads }

// Stores returns the number of store accesses.
func (h *Hierarchy) Stores() uint64 { return h.stores }

// BankConflicts returns the number of bank-conflicted loads.
func (h *Hierarchy) BankConflicts() uint64 { return h.bankConflictsCt }
