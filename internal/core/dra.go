// Package core implements the paper's primary contribution: the
// Distributed Register Algorithm (DRA, Sections 4–5 of "Loose Loops Sink
// Chips"). The DRA moves the multi-cycle register file read out of the
// issue-to-execute (IQ-EX) path — shortening the load resolution loop — and
// replaces it with:
//
//   - a register pre-read filtering table (RPFT): one valid bit per
//     physical register, set at writeback and cleared at allocation.
//     Sources whose bit is set at rename are *completed operands* and are
//     pre-read from the register file in the DEC-IQ path into the IQ
//     payload;
//   - per-cluster insertion tables: 2-bit saturating counters, one per
//     physical register per functional-unit cluster, counting outstanding
//     consumers slotted to that cluster that still need the operand;
//   - per-cluster cluster register caches (CRCs): small fully associative
//     FIFO caches close to the functional units that hold *cached
//     operands* — values that were neither pre-read nor picked up from the
//     forwarding buffer.
//
// A consumer that finds its operand in none of payload / forwarding buffer /
// CRC suffers an *operand miss*, the mis-speculation of the new operand
// resolution loop the DRA introduces; the pipeline recovers by reading the
// register file into the payload and reissuing the instruction and its
// issued dependents.
package core

import (
	"fmt"

	"loosesim/internal/regfile"
)

// ReplacementPolicy selects how a CRC chooses victims.
type ReplacementPolicy uint8

// CRC replacement policies. The paper uses FIFO and reports that
// near-oracle knowledge buys almost nothing (Section 5.1); LRU is provided
// to reproduce that comparison.
const (
	// FIFO replaces the oldest-inserted entry.
	FIFO ReplacementPolicy = iota
	// LRU replaces the least recently read entry.
	LRU
)

// String names the policy.
func (p ReplacementPolicy) String() string {
	if p == LRU {
		return "lru"
	}
	return "fifo"
}

// Config sizes the DRA structures.
type Config struct {
	// Clusters is the number of functional-unit clusters (8 in the base
	// machine), each with its own CRC and insertion table.
	Clusters int
	// CRCEntries is the capacity of each cluster register cache (16 in
	// the paper: small enough for single-cycle fully associative access).
	CRCEntries int
	// CounterBits is the width of each insertion table counter (2 in the
	// paper, saturating at 3 outstanding consumers per cluster).
	CounterBits int
	// Policy selects the CRC replacement policy (paper: FIFO).
	Policy ReplacementPolicy
	// TimeoutCycles, when positive, expires CRC entries that have been
	// resident longer than this — the alternative staleness mechanism the
	// paper sketches in Section 5.5.
	TimeoutCycles int64
	// Monolithic collapses the per-cluster CRCs into one shared register
	// cache of CRCEntries entries — the strawman design Section 4 argues
	// against (a single small cache has too little capacity, a single
	// large one cannot be read in a cycle). Used by ablations.
	Monolithic bool // simlint:novalidate shape toggle; both values are legal
}

// DefaultConfig returns the paper's DRA geometry: 8 clusters × 16-entry
// CRCs with 2-bit insertion counters.
func DefaultConfig() Config {
	return Config{Clusters: 8, CRCEntries: 16, CounterBits: 2}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Clusters < 1 {
		return fmt.Errorf("core: Clusters = %d, must be >= 1", c.Clusters)
	}
	if c.CRCEntries < 1 {
		return fmt.Errorf("core: CRCEntries = %d, must be >= 1", c.CRCEntries)
	}
	if c.CounterBits < 1 || c.CounterBits > 8 {
		return fmt.Errorf("core: CounterBits = %d, must be in 1..8", c.CounterBits)
	}
	if c.Policy != FIFO && c.Policy != LRU {
		return fmt.Errorf("core: unknown replacement policy %d", c.Policy)
	}
	if c.TimeoutCycles < 0 {
		return fmt.Errorf("core: TimeoutCycles = %d, must be >= 0", c.TimeoutCycles)
	}
	return nil
}

func (c Config) counterMax() uint8 {
	if c.CounterBits <= 0 {
		return 1
	}
	if c.CounterBits >= 8 {
		return 255
	}
	return uint8(1<<c.CounterBits) - 1
}

// RPFT is the register pre-read filtering table: one bit per physical
// register indicating the value is present in the register file and may be
// pre-read in the DEC-IQ path (paper Section 5.2). It mirrors the register
// file's valid state as a separate physical structure with 16 read and 8
// write ports.
type RPFT struct {
	bits []bool
}

// NewRPFT returns an RPFT for numPhys physical registers, all initially
// valid (architectural state is in the register file at reset).
func NewRPFT(numPhys int) *RPFT {
	b := make([]bool, numPhys)
	for i := range b {
		b[i] = true
	}
	return &RPFT{bits: b}
}

// Set marks p as present in the register file (called at writeback).
func (r *RPFT) Set(p regfile.PReg) {
	if p != regfile.PRegInvalid {
		r.bits[p] = true
	}
}

// Clear marks p as in flight (called when the renamer allocates p).
func (r *RPFT) Clear(p regfile.PReg) {
	if p != regfile.PRegInvalid {
		r.bits[p] = false
	}
}

// Read reports whether p may be pre-read from the register file.
func (r *RPFT) Read(p regfile.PReg) bool {
	return p != regfile.PRegInvalid && r.bits[p]
}

// crcEntry is one CRC slot.
type crcEntry struct {
	preg     regfile.PReg
	valid    bool
	inserted int64 // cycle the value was written
	lastUse  int64 // cycle the value was last read
}

// CRC is a cluster register cache: a small fully associative structure
// managed as a simple FIFO (paper Section 5.1 — more complex replacement
// bought nothing measurable). LRU replacement and entry timeouts are
// available for the ablations that reproduce those design comparisons.
// Values are not modelled; presence is.
//
// The associative match is modelled by an index rather than a search:
// valid entries hold distinct registers, so slot maps each physical
// register to 1 + the index of the valid entry holding it, or 0 when
// absent.
type CRC struct {
	entries []crcEntry
	slot    []int32           // simlint:nosync derived from entries when decoded
	policy  ReplacementPolicy // simlint:nosync configuration
	timeout int64             // simlint:nosync configuration; 0 = no timeout

	hits, misses, inserts, invalidates, expirations uint64
}

// NewCRC returns a FIFO CRC with the given capacity, caching values of
// physical registers 0..numPhys-1.
func NewCRC(entries, numPhys int) *CRC { return NewCRCWith(entries, numPhys, FIFO, 0) }

// NewCRCWith returns a CRC with the given capacity, register range,
// replacement policy and entry timeout (0 disables timeouts).
func NewCRCWith(entries, numPhys int, policy ReplacementPolicy, timeout int64) *CRC {
	if entries < 1 {
		panic(fmt.Sprintf("core: CRC needs at least one entry, got %d", entries))
	}
	return &CRC{
		entries: make([]crcEntry, entries),
		slot:    make([]int32, numPhys),
		policy:  policy,
		timeout: timeout,
	}
}

// Lookup reports whether preg's value is present at the given cycle,
// updating statistics and LRU state. Timed-out entries miss and expire.
func (c *CRC) Lookup(p regfile.PReg, cycle int64) bool {
	slot := c.slot
	if p < 0 || int(p) >= len(slot) || slot[p] == 0 {
		c.misses++
		return false
	}
	e := &c.entries[slot[p]-1]
	if c.timeout > 0 && cycle-e.inserted > c.timeout {
		e.valid = false
		slot[p] = 0
		c.expirations++
		c.misses++
		return false
	}
	e.lastUse = cycle
	c.hits++
	return true
}

// Contains reports presence without touching statistics (for tests).
func (c *CRC) Contains(p regfile.PReg) bool {
	return p >= 0 && int(p) < len(c.slot) && c.slot[p] != 0
}

// Insert writes preg into the cache at the given cycle. If already present
// the entry's timestamp refreshes; otherwise the policy picks the victim.
func (c *CRC) Insert(p regfile.PReg, cycle int64) {
	if p == regfile.PRegInvalid {
		return
	}
	c.inserts++
	slot := c.slot
	if i := slot[p]; i != 0 {
		c.entries[i-1].inserted = cycle
		return
	}
	victim := 0
	best := int64(1<<62 - 1)
	for i := range c.entries {
		if !c.entries[i].valid {
			victim = i
			break
		}
		key := c.entries[i].inserted
		if c.policy == LRU {
			key = c.entries[i].lastUse
		}
		if key < best {
			best = key
			victim = i
		}
	}
	e := &c.entries[victim]
	if e.valid {
		slot[e.preg] = 0
	}
	*e = crcEntry{preg: p, valid: true, inserted: cycle, lastUse: cycle}
	slot[p] = int32(victim) + 1
}

// Invalidate removes preg if present. Called when the physical register is
// reallocated so a stale value cannot be read (paper Section 5.5).
func (c *CRC) Invalidate(p regfile.PReg) {
	slot := c.slot
	if p < 0 || int(p) >= len(slot) || slot[p] == 0 {
		return
	}
	c.entries[slot[p]-1].valid = false
	slot[p] = 0
	c.invalidates++
}

// Occupancy returns the number of valid entries.
func (c *CRC) Occupancy() int {
	n := 0
	for i := range c.entries {
		if c.entries[i].valid {
			n++
		}
	}
	return n
}

// Hits returns the lookup hit count.
func (c *CRC) Hits() uint64 { return c.hits }

// Misses returns the lookup miss count.
func (c *CRC) Misses() uint64 { return c.misses }

// Expirations returns the number of entries invalidated by timeout.
func (c *CRC) Expirations() uint64 { return c.expirations }

// InsertionTable counts, per physical register, the outstanding consumers
// slotted to one cluster that have not yet obtained the operand (paper
// Section 5.3). The counter saturates at 2^CounterBits−1 consumers: an
// operand with more consumers than that on one cluster will take an operand
// miss for the extras — one of the paper's two documented miss sources.
type InsertionTable struct {
	counts []uint8
	max    uint8 // simlint:nosync configuration

	saturations uint64
}

// NewInsertionTable returns a table for numPhys registers with counters
// saturating at maxCount.
func NewInsertionTable(numPhys int, maxCount uint8) *InsertionTable {
	return &InsertionTable{counts: make([]uint8, numPhys), max: maxCount}
}

// Inc notes a new outstanding consumer of p on this cluster (a failed
// pre-read routed here by the RPFT).
func (t *InsertionTable) Inc(p regfile.PReg) {
	if p == regfile.PRegInvalid {
		return
	}
	if t.counts[p] >= t.max {
		t.saturations++
		return
	}
	t.counts[p]++
}

// Dec notes a consumer on this cluster obtained p from the forwarding
// buffer; clamps at zero.
func (t *InsertionTable) Dec(p regfile.PReg) {
	if p != regfile.PRegInvalid && t.counts[p] > 0 {
		t.counts[p]--
	}
}

// Count returns the outstanding-consumer count for p.
func (t *InsertionTable) Count(p regfile.PReg) uint8 {
	if p == regfile.PRegInvalid {
		return 0
	}
	return t.counts[p]
}

// Clear zeroes the counter for p (after a CRC insertion consumes it, or
// when the register is reallocated).
func (t *InsertionTable) Clear(p regfile.PReg) {
	if p != regfile.PRegInvalid {
		t.counts[p] = 0
	}
}

// Saturations returns how many Inc calls hit the counter ceiling.
func (t *InsertionTable) Saturations() uint64 { return t.saturations }

// DRA composes the RPFT, insertion tables and CRCs and exposes the event
// interface the pipeline drives. All methods are per-event and O(small).
type DRA struct {
	cfg    Config // simlint:nosync configuration
	rpft   *RPFT
	tables []*InsertionTable
	crcs   []*CRC

	preReads         uint64
	failedPreReads   uint64
	crcInsertsNeeded uint64
	discardedWBs     uint64
}

// New builds a DRA for a machine with numPhys physical registers.
func New(cfg Config, numPhys int) *DRA {
	if cfg.Clusters < 1 {
		panic("core: DRA needs at least one cluster")
	}
	d := &DRA{cfg: cfg, rpft: NewRPFT(numPhys)}
	banks := cfg.Clusters
	if cfg.Monolithic {
		banks = 1
	}
	for i := 0; i < banks; i++ {
		d.tables = append(d.tables, NewInsertionTable(numPhys, cfg.counterMax()))
		d.crcs = append(d.crcs, NewCRCWith(cfg.CRCEntries, numPhys, cfg.Policy, cfg.TimeoutCycles))
	}
	return d
}

// bank maps a functional-unit cluster to its CRC/table index (always 0 for
// the monolithic strawman).
func (d *DRA) bank(cluster int) int {
	if d.cfg.Monolithic {
		return 0
	}
	return cluster
}

// Config returns the DRA geometry.
func (d *DRA) Config() Config { return d.cfg }

// RPFT exposes the pre-read filtering table.
func (d *DRA) RPFT() *RPFT { return d.rpft }

// CRCOf exposes one cluster's register cache.
func (d *DRA) CRCOf(cluster int) *CRC { return d.crcs[d.bank(cluster)] }

// TableOf exposes one cluster's insertion table.
func (d *DRA) TableOf(cluster int) *InsertionTable { return d.tables[d.bank(cluster)] }

// RenameSource handles one source operand at rename time for an instruction
// slotted to `cluster`. If the RPFT bit is set the operand is a completed
// operand: it is pre-read from the register file into the payload, and
// RenameSource returns true. Otherwise the source register number is routed
// to the cluster's insertion table and RenameSource returns false.
func (d *DRA) RenameSource(cluster int, p regfile.PReg) (preRead bool) {
	if p == regfile.PRegInvalid {
		return false
	}
	if d.rpft.Read(p) {
		d.preReads++
		return true
	}
	d.failedPreReads++
	d.tables[d.bank(cluster)].Inc(p)
	return false
}

// RenameDest handles destination allocation: the RPFT bit clears (the
// producer is now in flight) and any stale CRC entries for the reallocated
// physical register are invalidated, along with leftover insertion-table
// counts from its previous life.
func (d *DRA) RenameDest(p regfile.PReg) {
	if p == regfile.PRegInvalid {
		return
	}
	d.rpft.Clear(p)
	for _, c := range d.crcs {
		c.Invalidate(p)
	}
	for _, t := range d.tables {
		t.Clear(p)
	}
}

// ForwardHit notes that a consumer on `cluster` obtained operand p from the
// forwarding buffer, decrementing that cluster's outstanding-consumer count.
func (d *DRA) ForwardHit(cluster int, p regfile.PReg) {
	d.tables[d.bank(cluster)].Dec(p)
}

// LookupCRC reports whether operand p is present in cluster's CRC at the
// given cycle.
func (d *DRA) LookupCRC(cluster int, p regfile.PReg, cycle int64) bool {
	return d.crcs[d.bank(cluster)].Lookup(p, cycle)
}

// Writeback handles a value arriving at the register file at the given
// cycle: the RPFT bit sets, and the value is inserted into the CRC of every
// cluster whose insertion table shows outstanding consumers (clearing those
// counts). It returns the number of CRCs the value was written into.
func (d *DRA) Writeback(p regfile.PReg, cycle int64) int {
	if p == regfile.PRegInvalid {
		return 0
	}
	d.rpft.Set(p)
	inserted := 0
	crcs := d.crcs
	for i, t := range d.tables {
		if t.Count(p) > 0 {
			crcs[i].Insert(p, cycle)
			t.Clear(p)
			inserted++
		}
	}
	if inserted == 0 {
		d.discardedWBs++
	} else {
		d.crcInsertsNeeded++
	}
	return inserted
}

// PreReads returns the number of successful pre-read classifications.
func (d *DRA) PreReads() uint64 { return d.preReads }

// FailedPreReads returns the number of sources routed to insertion tables.
func (d *DRA) FailedPreReads() uint64 { return d.failedPreReads }

// DiscardedWritebacks returns writebacks with no outstanding consumers
// anywhere (the value was not cached — the common case, since most register
// values are read once, via forwarding).
func (d *DRA) DiscardedWritebacks() uint64 { return d.discardedWBs }
