// Package mem models the data-memory substrate of the simulated machine: a
// set-associative, banked L1 data cache backed by a unified L2 and main
// memory, plus a data TLB. Load latency non-determinism — did the load hit,
// miss, or suffer a bank conflict — is what creates the paper's load
// resolution loop, so these structures are real tag/LRU models over the
// generated address streams rather than fixed probabilities.
package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the block size; must be a power of two.
	LineBytes int
	// Ways is the associativity.
	Ways int
	// Banks is the number of independently addressed banks (L1 only);
	// zero means unbanked.
	Banks int
	// HitLatency is the load-to-use latency in cycles on a hit at this
	// level (measured from the start of the access).
	HitLatency int
}

// Validate reports configuration errors: the geometry the constructor
// would otherwise panic on, checked up front so a bad sweep config fails
// with an error instead of taking down the process mid-batch.
func (c CacheConfig) Validate() error {
	if c.SizeBytes < 1 {
		return fmt.Errorf("mem: SizeBytes = %d, must be >= 1", c.SizeBytes)
	}
	if c.LineBytes < 1 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: LineBytes = %d, must be a power of two", c.LineBytes)
	}
	if c.Ways < 1 {
		return fmt.Errorf("mem: Ways = %d, must be >= 1", c.Ways)
	}
	if c.Banks < 0 {
		return fmt.Errorf("mem: Banks = %d, must be >= 0", c.Banks)
	}
	if c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("mem: Banks = %d, must be zero or a power of two", c.Banks)
	}
	if c.HitLatency < 1 {
		return fmt.Errorf("mem: HitLatency = %d, must be >= 1", c.HitLatency)
	}
	if s := c.sets(); s&(s-1) != 0 {
		return fmt.Errorf("mem: set count %d not a power of two (size=%d line=%d ways=%d)",
			s, c.SizeBytes, c.LineBytes, c.Ways)
	}
	return nil
}

func (c CacheConfig) sets() int {
	s := c.SizeBytes / (c.LineBytes * c.Ways)
	if s < 1 {
		s = 1
	}
	return s
}

type line struct {
	tag   uint64
	valid bool
	used  uint64 // LRU timestamp
}

// Cache is a set-associative cache with true LRU replacement. It tracks
// hits and misses; data contents are not modelled (timing-only simulator).
type Cache struct {
	cfg     CacheConfig // simlint:noreset simlint:nosync immutable geometry, fixed at construction
	sets    [][]line
	setMask uint64 // simlint:noreset simlint:nosync derived from cfg at construction
	lnShift uint   // simlint:noreset simlint:nosync derived from cfg at construction
	clock   uint64

	hits, misses uint64
}

// NewCache builds a cache from cfg. Line size and set count must come out
// as powers of two.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("mem: line size %d not a power of two", cfg.LineBytes))
	}
	nsets := cfg.sets()
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("mem: set count %d not a power of two (size=%d ways=%d)", nsets, cfg.SizeBytes, cfg.Ways))
	}
	sets := make([][]line, nsets)
	backing := make([]line, nsets*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	sh := uint(0)
	for 1<<sh < cfg.LineBytes {
		sh++
	}
	return &Cache{cfg: cfg, sets: sets, setMask: uint64(nsets - 1), lnShift: sh}
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) set(addr uint64) ([]line, uint64) {
	blk := addr >> c.lnShift
	return c.sets[blk&c.setMask], blk >> 0
}

// Access probes the cache for addr, allocating the line on a miss (LRU
// victim) and updating LRU state. It returns whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.clock
			c.hits++
			return true
		}
	}
	c.misses++
	// Choose the LRU victim (or an invalid way).
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	set[victim] = line{tag: tag, valid: true, used: c.clock}
	return false
}

// Probe checks for addr without updating any state. Used by tests.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Bank returns the bank index addr maps to (0 for unbanked caches).
func (c *Cache) Bank(addr uint64) int {
	if c.cfg.Banks <= 1 {
		return 0
	}
	return int((addr >> c.lnShift) % uint64(c.cfg.Banks))
}

// Hits returns the number of hits observed.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses observed.
func (c *Cache) Misses() uint64 { return c.misses }

// MissRate returns misses / accesses, or 0 with no accesses.
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = line{}
		}
	}
	c.hits, c.misses, c.clock = 0, 0, 0
}
