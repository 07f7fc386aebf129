package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"loosesim/internal/regfile"
	"loosesim/internal/snap"
)

// linearProbe is the fully associative search the register index stands
// in for: the first valid entry holding p, or -1.
func linearProbe(c *CRC, p regfile.PReg) int {
	for i, e := range c.entries {
		if e.valid && e.preg == p {
			return i
		}
	}
	return -1
}

// checkIndex reports whether, for every register, the index agrees with
// a linear probe and at most one valid entry holds the register.
func checkIndex(c *CRC, numPhys int) bool {
	valid := map[regfile.PReg]int{}
	for _, e := range c.entries {
		if e.valid {
			valid[e.preg]++
		}
	}
	for p := regfile.PReg(0); int(p) < numPhys; p++ {
		if valid[p] > 1 || int(c.slot[p])-1 != linearProbe(c, p) || c.Contains(p) != (linearProbe(c, p) >= 0) {
			return false
		}
	}
	return true
}

// Property: under random Insert / Lookup / Invalidate streams the index
// probe equals the linear probe, for FIFO and LRU, with and without entry
// timeouts.
func TestCRCIndexMatchesLinearProbe(t *testing.T) {
	const numPhys = 24
	for _, pc := range []struct {
		policy  ReplacementPolicy
		timeout int64
	}{{FIFO, 0}, {LRU, 0}, {FIFO, 6}, {LRU, 6}} {
		f := func(seed int64, n uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			c := NewCRCWith(1+rng.Intn(6), numPhys, pc.policy, pc.timeout)
			cycle := int64(0)
			for i := 0; i < int(n)+32; i++ {
				cycle += int64(rng.Intn(3))
				p := regfile.PReg(rng.Intn(numPhys))
				switch rng.Intn(3) {
				case 0:
					c.Insert(p, cycle)
				case 1:
					c.Lookup(p, cycle)
				default:
					c.Invalidate(p)
				}
				if !checkIndex(c, numPhys) {
					t.Logf("%v/%d: index diverged after op %d on p%d", pc.policy, pc.timeout, i, p)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v timeout %d: %v", pc.policy, pc.timeout, err)
		}
	}
}

// Property: the same holds for every bank of a DRA driven by the
// pipeline's event mix, clustered and monolithic, and a bank restored
// from a snapshot rebuilds the identical index.
func TestDRAIndexMatchesLinearProbe(t *testing.T) {
	const numPhys = 40
	for _, mono := range []bool{false, true} {
		f := func(seed int64, n uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{Clusters: 4, CRCEntries: 3, CounterBits: 2, Monolithic: mono, TimeoutCycles: int64(rng.Intn(2) * 8)}
			d := New(cfg, numPhys)
			for i := 0; i < int(n)+64; i++ {
				p := regfile.PReg(rng.Intn(numPhys))
				cl := rng.Intn(cfg.Clusters)
				cycle := int64(i)
				switch rng.Intn(4) {
				case 0:
					d.RenameDest(p)
					d.RenameSource(cl, p)
				case 1:
					d.ForwardHit(cl, p)
				case 2:
					d.LookupCRC(cl, p, cycle)
				default:
					d.Writeback(p, cycle)
				}
			}
			for _, c := range d.crcs {
				if !checkIndex(c, numPhys) {
					return false
				}
			}
			var enc snap.Codec
			d.Sync(&enc)
			back := New(cfg, numPhys)
			dec := snap.NewDecoder(enc.Bytes())
			back.Sync(dec)
			if dec.Expect() != nil {
				return false
			}
			for i, c := range back.crcs {
				if !checkIndex(c, numPhys) || !slices.Equal(c.slot, d.crcs[i].slot) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("monolithic=%v: %v", mono, err)
		}
	}
}

// TestCRCRestoreRejectsDuplicateRegister: the index holds one entry per
// register, so a snapshot with one register valid in two entries (or a
// valid entry naming no register) must be refused, not half-indexed.
func TestCRCRestoreRejectsDuplicateRegister(t *testing.T) {
	src := NewCRC(4, 16)
	src.Insert(3, 1)
	src.Insert(5, 2)
	var good snap.Codec
	src.Sync(&good)
	dec := snap.NewDecoder(good.Bytes())
	NewCRC(4, 16).Sync(dec)
	if err := dec.Expect(); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}

	for _, tc := range []struct {
		name    string
		corrupt func(c *CRC)
	}{
		{"duplicate", func(c *CRC) { c.entries[1].preg = c.entries[0].preg }},
		{"no preg", func(c *CRC) { c.entries[1].preg = regfile.PRegInvalid }},
	} {
		bad := NewCRC(4, 16)
		bad.Insert(3, 1)
		bad.Insert(5, 2)
		tc.corrupt(bad)
		var enc snap.Codec
		bad.Sync(&enc)
		if bytes.Equal(enc.Bytes(), good.Bytes()) {
			t.Fatalf("%s: corruption did not change the encoding", tc.name)
		}
		dec := snap.NewDecoder(enc.Bytes())
		NewCRC(4, 16).Sync(dec)
		if dec.Err() == nil {
			t.Errorf("%s: restore accepted a register index it cannot represent", tc.name)
		}
	}
}
