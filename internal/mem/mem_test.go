package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"loosesim/internal/snap"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return NewCache(CacheConfig{SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 3})
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Access(0x1000) {
		t.Error("cold access must miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access must hit")
	}
	if !c.Access(0x1010) {
		t.Error("same-line access must hit")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", c.Hits(), c.Misses())
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c := smallCache() // 2 ways
	// Three distinct lines mapping to the same set (stride = sets*line = 256B).
	a, b, d := uint64(0x0), uint64(0x100), uint64(0x200)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU, b is LRU
	c.Access(d) // evicts b
	if !c.Probe(a) {
		t.Error("a must survive (MRU)")
	}
	if c.Probe(b) {
		t.Error("b must be the LRU victim")
	}
	if !c.Probe(d) {
		t.Error("d must be resident")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, HitLatency: 3})
	// Touch a 4KB working set twice; second pass must be all hits.
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 4096; a += 64 {
			c.Access(a)
		}
	}
	if c.Misses() != 64 {
		t.Errorf("misses = %d, want exactly 64 cold misses", c.Misses())
	}
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", got)
	}
}

func TestCacheThrashingWorkingSet(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1 << 10, LineBytes: 64, Ways: 1, HitLatency: 3})
	// A 2KB set-conflicting sweep in a 1KB direct-mapped cache thrashes.
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 2048; a += 64 {
			c.Access(a)
		}
	}
	if c.MissRate() != 1.0 {
		t.Errorf("direct-mapped thrash miss rate = %v, want 1.0", c.MissRate())
	}
}

func TestCacheReset(t *testing.T) {
	c := smallCache()
	c.Access(0x40)
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("reset must clear statistics")
	}
	if c.Probe(0x40) {
		t.Error("reset must clear contents")
	}
}

func TestCacheBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two line size must panic")
		}
	}()
	NewCache(CacheConfig{SizeBytes: 512, LineBytes: 48, Ways: 2})
}

func TestCacheBank(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2, Banks: 8, HitLatency: 3})
	if c.Bank(0) == c.Bank(64) {
		t.Error("consecutive lines must map to different banks")
	}
	if c.Bank(0) != c.Bank(8*64) {
		t.Error("bank mapping must wrap at Banks lines")
	}
	un := smallCache()
	if un.Bank(0x123456) != 0 {
		t.Error("unbanked cache must report bank 0")
	}
}

func TestTLBHitMissLRU(t *testing.T) {
	tlb := NewTLB(2, 4096)
	if tlb.Access(0x0000) {
		t.Error("cold TLB access must miss")
	}
	if !tlb.Access(0x0FFF) {
		t.Error("same-page access must hit")
	}
	tlb.Access(0x1000) // page 1
	tlb.Access(0x0000) // page 0 -> MRU
	tlb.Access(0x2000) // page 2 evicts page 1 (LRU)
	if tlb.Access(0x1000) {
		t.Error("evicted page must miss")
	}
	if tlb.Misses() != 4 {
		t.Errorf("TLB misses = %d, want 4", tlb.Misses())
	}
	if tlb.MissRate() <= 0 || tlb.MissRate() >= 1 {
		t.Errorf("miss rate %v out of range", tlb.MissRate())
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := DefaultHierConfig()
	h := NewHierarchy(cfg)
	// Cold load: misses everywhere -> memory latency.
	r := h.Load(0x10000, 0)
	if r.L1Hit || r.L2Hit {
		t.Error("cold load must miss both levels")
	}
	if r.Latency != cfg.MemLatency {
		t.Errorf("cold latency = %d, want %d", r.Latency, cfg.MemLatency)
	}
	if !r.TLBMiss {
		t.Error("cold load must miss the TLB")
	}
	// Second load to same line: L1 hit.
	r = h.Load(0x10000, 1)
	if !r.L1Hit || r.Latency != cfg.L1.HitLatency || r.TLBMiss {
		t.Errorf("warm load = %+v, want L1 hit at %d cycles", r, cfg.L1.HitLatency)
	}
	if !r.Hit() {
		t.Error("warm unconflicted L1 access must report Hit()")
	}
}

func TestHierarchyL2HitLatency(t *testing.T) {
	cfg := DefaultHierConfig()
	h := NewHierarchy(cfg)
	h.Load(0x40000, 0) // installs in L1 and L2
	// Evict from L1 by sweeping its capacity with conflicting lines, but
	// stay within L2.
	for a := uint64(0); a < uint64(cfg.L1.SizeBytes*2); a += 64 {
		h.Load(0x80000+a, 1)
	}
	r := h.Load(0x40000, 2)
	if r.L1Hit {
		t.Fatal("line should have been evicted from L1")
	}
	if !r.L2Hit {
		t.Fatal("line should still be resident in L2")
	}
	if r.Latency != cfg.L2.HitLatency {
		t.Errorf("L2 hit latency = %d, want %d", r.Latency, cfg.L2.HitLatency)
	}
}

func TestHierarchyBankConflict(t *testing.T) {
	cfg := DefaultHierConfig()
	h := NewHierarchy(cfg)
	sameBank := uint64(cfg.L1.Banks) * 64
	// Warm two lines in the same bank (Banks*64 apart).
	h.Load(0x0, 0)
	h.Load(sameBank, 1)
	// Same cycle, same bank -> second conflicts.
	r1 := h.Load(0x0, 10)
	r2 := h.Load(sameBank, 10)
	if r1.BankConflict {
		t.Error("first access of the cycle must not conflict")
	}
	if !r2.BankConflict {
		t.Error("second same-bank access in a cycle must conflict")
	}
	if r2.Hit() {
		t.Error("conflicted access must not count as a clean hit")
	}
	if r2.Latency != cfg.L1.HitLatency+cfg.BankConflictPenalty {
		t.Errorf("conflicted latency = %d, want %d", r2.Latency, cfg.L1.HitLatency+cfg.BankConflictPenalty)
	}
	// Different bank same cycle: no conflict.
	h.Load(64, 11)
	r3 := h.Load(2*64, 11)
	if r3.BankConflict {
		t.Error("different banks must not conflict")
	}
	if h.BankConflicts() != 1 {
		t.Errorf("bank conflicts = %d, want 1", h.BankConflicts())
	}
}

func TestHierarchyStoreCounts(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	h.Store(0x100)
	h.Load(0x100, 0)
	if h.Stores() != 1 || h.Loads() != 1 {
		t.Errorf("loads=%d stores=%d, want 1/1", h.Loads(), h.Stores())
	}
	// The store should have warmed the line for the load.
	r := h.Load(0x100, 1)
	if !r.L1Hit {
		t.Error("store must install the line")
	}
}

// Property: hits + misses equals accesses, and MissRate stays in [0,1].
func TestCacheAccountingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := smallCache()
		for i := 0; i < int(n); i++ {
			c.Access(rng.Uint64() & 0xFFFF)
		}
		if c.Hits()+c.Misses() != uint64(n) {
			return false
		}
		mr := c.MissRate()
		return mr >= 0 && mr <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: an address accessed twice in a row always hits the second time
// (no spurious invalidation), regardless of interleaved history length < ways.
func TestCacheRepeatHitProperty(t *testing.T) {
	f := func(seed int64, addr uint32) bool {
		c := smallCache()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			c.Access(rng.Uint64() & 0xFFFF)
		}
		a := uint64(addr)
		c.Access(a)
		return c.Access(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: hierarchy latency is always one of the four legal values
// (L1, L2, memory, each optionally plus the conflict penalty).
func TestHierarchyLatencyDomainProperty(t *testing.T) {
	cfg := DefaultHierConfig()
	legal := map[int]bool{
		cfg.L1.HitLatency: true, cfg.L1.HitLatency + cfg.BankConflictPenalty: true,
		cfg.L2.HitLatency: true, cfg.L2.HitLatency + cfg.BankConflictPenalty: true,
		cfg.MemLatency: true, cfg.MemLatency + cfg.BankConflictPenalty: true,
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHierarchy(cfg)
		for i := 0; i < int(n); i++ {
			r := h.Load(rng.Uint64()&0xFFFFF, int64(i/4))
			if !legal[r.Latency] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHierarchySnapshotSize(t *testing.T) {
	small := DefaultHierConfig()
	small.L1.SizeBytes, small.L2.SizeBytes, small.TLBEntries = 4<<10, 16<<10, 3
	for _, cfg := range []HierConfig{DefaultHierConfig(), small} {
		h := NewHierarchy(cfg)
		for i := uint64(0); i < 5000; i++ {
			h.Load(i*4099, int64(i))
		}
		var c snap.Codec
		h.Sync(&c)
		if got, want := h.SnapshotSize(), len(c.Bytes()); got != want {
			t.Errorf("SnapshotSize = %d, encoding is %d bytes", got, want)
		}
	}
}
