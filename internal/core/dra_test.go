package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"loosesim/internal/regfile"
)

func TestRPFTLifecycle(t *testing.T) {
	r := NewRPFT(16)
	p := regfile.PReg(3)
	if !r.Read(p) {
		t.Error("registers start valid (architectural state committed)")
	}
	r.Clear(p)
	if r.Read(p) {
		t.Error("cleared bit must read false")
	}
	r.Set(p)
	if !r.Read(p) {
		t.Error("set bit must read true")
	}
	if r.Read(regfile.PRegInvalid) {
		t.Error("invalid register must read false")
	}
	r.Set(regfile.PRegInvalid)   // no-op
	r.Clear(regfile.PRegInvalid) // no-op
}

func TestCRCFIFOEviction(t *testing.T) {
	c := NewCRC(4, 64)
	for p := regfile.PReg(0); p < 4; p++ {
		c.Insert(p, 0)
	}
	if c.Occupancy() != 4 {
		t.Fatalf("occupancy = %d, want 4", c.Occupancy())
	}
	c.Insert(4, 0) // evicts oldest (0)
	if c.Contains(0) {
		t.Error("FIFO must evict the oldest entry")
	}
	for p := regfile.PReg(1); p <= 4; p++ {
		if !c.Contains(p) {
			t.Errorf("p%d must be resident", p)
		}
	}
}

func TestCRCDuplicateInsert(t *testing.T) {
	c := NewCRC(4, 64)
	c.Insert(7, 0)
	c.Insert(7, 0)
	if c.Occupancy() != 1 {
		t.Errorf("duplicate insert must not consume a second slot, occupancy=%d", c.Occupancy())
	}
}

func TestCRCInvalidate(t *testing.T) {
	c := NewCRC(4, 64)
	c.Insert(1, 0)
	c.Insert(2, 0)
	c.Invalidate(1)
	if c.Contains(1) {
		t.Error("invalidated entry must be gone")
	}
	if !c.Contains(2) {
		t.Error("other entries must survive invalidation")
	}
	c.Invalidate(99) // absent: no-op
}

func TestCRCLookupStats(t *testing.T) {
	c := NewCRC(2, 64)
	c.Insert(5, 0)
	if !c.Lookup(5, 0) {
		t.Error("lookup of resident entry must hit")
	}
	if c.Lookup(6, 0) {
		t.Error("lookup of absent entry must miss")
	}
	if c.Lookup(regfile.PRegInvalid, 0) {
		t.Error("invalid register must miss")
	}
	if c.Hits() != 1 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2", c.Hits(), c.Misses())
	}
}

func TestCRCZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-entry CRC must panic")
		}
	}()
	NewCRC(0, 64)
}

func TestInsertionTableSaturation(t *testing.T) {
	it := NewInsertionTable(8, 3)
	p := regfile.PReg(2)
	for i := 0; i < 5; i++ {
		it.Inc(p)
	}
	if it.Count(p) != 3 {
		t.Errorf("count = %d, want saturation at 3", it.Count(p))
	}
	if it.Saturations() != 2 {
		t.Errorf("saturations = %d, want 2", it.Saturations())
	}
	it.Dec(p)
	it.Dec(p)
	it.Dec(p)
	it.Dec(p) // clamps
	if it.Count(p) != 0 {
		t.Errorf("count after clamped decs = %d, want 0", it.Count(p))
	}
	it.Inc(p)
	it.Clear(p)
	if it.Count(p) != 0 {
		t.Error("clear must zero the counter")
	}
	if it.Count(regfile.PRegInvalid) != 0 {
		t.Error("invalid register count must be 0")
	}
}

func newDRA() *DRA {
	return New(Config{Clusters: 2, CRCEntries: 4, CounterBits: 2}, 32)
}

func TestDRARenameSourcePreRead(t *testing.T) {
	d := newDRA()
	p := regfile.PReg(1)
	// Valid at rename -> completed operand, pre-read.
	if !d.RenameSource(0, p) {
		t.Error("valid register must pre-read")
	}
	if d.TableOf(0).Count(p) != 0 {
		t.Error("pre-read must not touch the insertion table")
	}
	// After the register is reallocated, pre-read fails and the source is
	// routed to the slotted cluster's insertion table.
	d.RenameDest(p)
	if d.RenameSource(1, p) {
		t.Error("in-flight register must not pre-read")
	}
	if d.TableOf(1).Count(p) != 1 {
		t.Error("failed pre-read must increment the cluster's table")
	}
	if d.TableOf(0).Count(p) != 0 {
		t.Error("other clusters' tables must be untouched")
	}
	if d.PreReads() != 1 || d.FailedPreReads() != 1 {
		t.Errorf("prereads=%d failed=%d, want 1/1", d.PreReads(), d.FailedPreReads())
	}
}

func TestDRAWritebackInsertsWhereNeeded(t *testing.T) {
	d := newDRA()
	p := regfile.PReg(4)
	d.RenameDest(p) // in flight
	d.RenameSource(0, p)
	d.RenameSource(0, p)
	d.RenameSource(1, p)
	// One cluster-0 consumer picks the value up from forwarding.
	d.ForwardHit(0, p)
	n := d.Writeback(p, 0)
	if n != 2 {
		t.Fatalf("writeback inserted into %d CRCs, want 2 (both have outstanding consumers)", n)
	}
	if !d.CRCOf(0).Contains(p) || !d.CRCOf(1).Contains(p) {
		t.Error("value must be cached in both clusters")
	}
	if d.TableOf(0).Count(p) != 0 || d.TableOf(1).Count(p) != 0 {
		t.Error("insertion counts must clear after caching")
	}
	if !d.RPFT().Read(p) {
		t.Error("writeback must set the RPFT bit")
	}
}

func TestDRAWritebackDiscardsUnneeded(t *testing.T) {
	d := newDRA()
	p := regfile.PReg(9)
	d.RenameDest(p)
	d.RenameSource(0, p)
	d.ForwardHit(0, p) // the only consumer got it from forwarding
	if n := d.Writeback(p, 0); n != 0 {
		t.Errorf("writeback inserted into %d CRCs, want 0", n)
	}
	if d.DiscardedWritebacks() != 1 {
		t.Errorf("discarded = %d, want 1", d.DiscardedWritebacks())
	}
	if d.CRCOf(0).Contains(p) {
		t.Error("unneeded value must not be cached")
	}
}

func TestDRASaturationCausesDroppedConsumers(t *testing.T) {
	// Paper Section 5.4: >3 consumers of one operand on the same cluster
	// saturate the 2-bit counter; 3 forwarding hits zero the count and the
	// 4th consumer finds nothing in the CRC.
	d := newDRA()
	p := regfile.PReg(6)
	d.RenameDest(p)
	for i := 0; i < 4; i++ {
		d.RenameSource(0, p)
	}
	if d.TableOf(0).Count(p) != 3 {
		t.Fatalf("count = %d, want saturated 3", d.TableOf(0).Count(p))
	}
	for i := 0; i < 3; i++ {
		d.ForwardHit(0, p)
	}
	if n := d.Writeback(p, 0); n != 0 {
		t.Errorf("saturated-then-drained writeback inserted %d, want 0", n)
	}
	if d.LookupCRC(0, p, 0) {
		t.Error("4th consumer must miss — exactly the paper's saturation miss")
	}
}

func TestDRARenameDestInvalidatesStaleState(t *testing.T) {
	d := newDRA()
	p := regfile.PReg(3)
	d.RenameDest(p)
	d.RenameSource(0, p)
	d.Writeback(p, 0)
	if !d.CRCOf(0).Contains(p) {
		t.Fatal("setup: value must be cached")
	}
	// Reallocation: stale CRC entry and any counts must vanish.
	d.RenameSource(1, p) // leave a stray count on cluster 1... (valid now, so pre-reads)
	d.RenameDest(p)
	if d.CRCOf(0).Contains(p) {
		t.Error("reallocation must invalidate stale CRC entries")
	}
	if d.RPFT().Read(p) {
		t.Error("reallocation must clear the RPFT bit")
	}
	if d.TableOf(0).Count(p) != 0 || d.TableOf(1).Count(p) != 0 {
		t.Error("reallocation must clear insertion counts")
	}
}

func TestConfigCounterMax(t *testing.T) {
	cases := []struct {
		bits int
		want uint8
	}{{0, 1}, {1, 1}, {2, 3}, {3, 7}, {8, 255}, {12, 255}}
	for _, c := range cases {
		cfg := Config{CounterBits: c.bits}
		if got := cfg.counterMax(); got != c.want {
			t.Errorf("counterMax(%d bits) = %d, want %d", c.bits, got, c.want)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Clusters != 8 || cfg.CRCEntries != 16 || cfg.CounterBits != 2 {
		t.Errorf("DefaultConfig = %+v, want paper geometry 8/16/2", cfg)
	}
}

// Property: CRC occupancy never exceeds capacity, and a Lookup immediately
// after Insert always hits (no self-eviction), for any operation sequence.
func TestCRCInvariantsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCRC(4, 64)
		for i := 0; i < int(n); i++ {
			p := regfile.PReg(rng.Intn(12))
			switch rng.Intn(3) {
			case 0:
				c.Insert(p, 0)
				if !c.Contains(p) {
					return false
				}
			case 1:
				c.Lookup(p, 0)
			default:
				c.Invalidate(p)
				if c.Contains(p) {
					return false
				}
			}
			if c.Occupancy() > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: insertion table counters stay within [0, max] under arbitrary
// inc/dec/clear streams.
func TestInsertionTableRangeProperty(t *testing.T) {
	f := func(seed int64, n uint8, bits uint8) bool {
		maxC := uint8(1<<(bits%3+1)) - 1
		rng := rand.New(rand.NewSource(seed))
		it := NewInsertionTable(8, maxC)
		for i := 0; i < int(n); i++ {
			p := regfile.PReg(rng.Intn(8))
			switch rng.Intn(3) {
			case 0:
				it.Inc(p)
			case 1:
				it.Dec(p)
			default:
				it.Clear(p)
			}
			if it.Count(p) > maxC {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
