package core

import (
	"testing"

	"loosesim/internal/regfile"
)

func TestCRCLRUEviction(t *testing.T) {
	c := NewCRCWith(2, 64, LRU, 0)
	c.Insert(1, 10)
	c.Insert(2, 11)
	if !c.Lookup(1, 12) { // 1 becomes MRU
		t.Fatal("setup lookup failed")
	}
	c.Insert(3, 13) // evicts 2 (LRU), not 1
	if c.Contains(2) {
		t.Error("LRU must evict the least recently read entry")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Error("MRU and new entries must survive")
	}
}

func TestCRCFIFOIgnoresRecency(t *testing.T) {
	c := NewCRCWith(2, 64, FIFO, 0)
	c.Insert(1, 10)
	c.Insert(2, 11)
	c.Lookup(1, 50) // recency must not matter under FIFO
	c.Insert(3, 51) // evicts 1 (oldest insert)
	if c.Contains(1) {
		t.Error("FIFO must evict the oldest insert regardless of reads")
	}
	if !c.Contains(2) || !c.Contains(3) {
		t.Error("younger entries must survive")
	}
}

func TestCRCTimeout(t *testing.T) {
	c := NewCRCWith(4, 64, FIFO, 100)
	c.Insert(5, 0)
	if !c.Lookup(5, 100) {
		t.Error("entry within timeout must hit")
	}
	if c.Lookup(5, 101) {
		t.Error("entry beyond timeout must miss")
	}
	if c.Contains(5) {
		t.Error("timed-out entry must be invalidated")
	}
	if c.Expirations() != 1 {
		t.Errorf("expirations = %d, want 1", c.Expirations())
	}
}

func TestCRCTimeoutDisabled(t *testing.T) {
	c := NewCRCWith(4, 64, FIFO, 0)
	c.Insert(5, 0)
	if !c.Lookup(5, 1<<40) {
		t.Error("without a timeout, entries never expire")
	}
}

func TestReplacementPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || LRU.String() != "lru" {
		t.Error("policy names wrong")
	}
}

func TestMonolithicDRASharesOneCache(t *testing.T) {
	d := New(Config{Clusters: 8, CRCEntries: 16, CounterBits: 2, Monolithic: true}, 64)
	p := regfile.PReg(7)
	d.RenameDest(p)
	// Consumers on different clusters all route to the single bank.
	d.RenameSource(0, p)
	d.RenameSource(5, p)
	if d.TableOf(0) != d.TableOf(5) {
		t.Fatal("monolithic mode must share one insertion table")
	}
	if d.TableOf(3).Count(p) != 2 {
		t.Errorf("shared count = %d, want 2", d.TableOf(3).Count(p))
	}
	if n := d.Writeback(p, 0); n != 1 {
		t.Errorf("monolithic writeback inserted into %d banks, want 1", n)
	}
	if !d.LookupCRC(2, p, 1) || !d.LookupCRC(7, p, 1) {
		t.Error("every cluster must see the shared cache")
	}
	if d.CRCOf(0) != d.CRCOf(7) {
		t.Error("monolithic mode must share one CRC")
	}
}

func TestMonolithicCapacityPressure(t *testing.T) {
	// The Section 4 argument: one 16-entry cache for the whole machine
	// thrashes where 8x16 clustered caches would not.
	mono := New(Config{Clusters: 8, CRCEntries: 16, CounterBits: 2, Monolithic: true}, 256)
	clus := New(Config{Clusters: 8, CRCEntries: 16, CounterBits: 2}, 256)
	// 64 values, each consumed on its own cluster, none via forwarding.
	for i := 0; i < 64; i++ {
		p := regfile.PReg(i)
		mono.RenameDest(p)
		clus.RenameDest(p)
		mono.RenameSource(i%8, p)
		clus.RenameSource(i%8, p)
		mono.Writeback(p, int64(i))
		clus.Writeback(p, int64(i))
	}
	monoHits, clusHits := 0, 0
	for i := 0; i < 64; i++ {
		p := regfile.PReg(i)
		if mono.LookupCRC(i%8, p, 100) {
			monoHits++
		}
		if clus.LookupCRC(i%8, p, 100) {
			clusHits++
		}
	}
	if clusHits != 64 {
		t.Errorf("clustered caches hold all 64 values, got %d", clusHits)
	}
	if monoHits >= clusHits {
		t.Errorf("monolithic cache must thrash: %d vs %d hits", monoHits, clusHits)
	}
}
