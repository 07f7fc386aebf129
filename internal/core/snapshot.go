package core

import (
	"loosesim/internal/regfile"
	"loosesim/internal/snap"
)

// Sync encodes or decodes the RPFT's valid bits; r must have the
// snapshot's size.
func (r *RPFT) Sync(c *snap.Codec) { c.Bools(r.bits) }

// Sync encodes or decodes one CRC's entries and statistics. Policy and
// timeout are configuration, rebuilt by the constructor; c must have the
// snapshot's capacity and register range. Decoding rebuilds the register
// index, which holds one entry per register, so a register valid in two
// entries (or a valid entry naming no register) is corrupt.
func (c *CRC) Sync(cd *snap.Codec) {
	for i := range c.entries {
		e := &c.entries[i]
		cd.I32((*int32)(&e.preg))
		cd.Bool(&e.valid)
		cd.I64(&e.inserted)
		cd.I64(&e.lastUse)
	}
	cd.U64(&c.hits)
	cd.U64(&c.misses)
	cd.U64(&c.inserts)
	cd.U64(&c.invalidates)
	cd.U64(&c.expirations)
	if !cd.Decoding() {
		return
	}
	numPhys := len(c.slot)
	clear(c.slot)
	for i, e := range c.entries {
		if e.preg != regfile.PRegInvalid && (e.preg < 0 || int(e.preg) >= numPhys) {
			cd.Failf("crc entry %d: preg %d out of range", i, e.preg)
			return
		}
		if !e.valid {
			continue
		}
		if e.preg == regfile.PRegInvalid {
			cd.Failf("crc entry %d: valid without a register", i)
			return
		}
		if c.slot[e.preg] != 0 {
			cd.Failf("crc entry %d: preg %d already valid in entry %d", i, e.preg, c.slot[e.preg]-1)
			return
		}
		c.slot[e.preg] = int32(i) + 1
	}
}

// Sync encodes or decodes one insertion table's counters and saturation
// count; t must have the snapshot's size. Counts beyond the saturation
// ceiling are corrupt.
func (t *InsertionTable) Sync(c *snap.Codec) {
	for i := range t.counts {
		c.U8(&t.counts[i])
	}
	c.U64(&t.saturations)
	if c.Decoding() {
		for _, v := range t.counts {
			if v > t.max {
				c.Failf("insertion count %d exceeds max %d", v, t.max)
				return
			}
		}
	}
}

// Sync encodes or decodes the whole DRA: RPFT, every bank's insertion
// table and CRC, and the classification statistics. d must have been
// constructed by New with the snapshot's config and numPhys.
func (d *DRA) Sync(c *snap.Codec) {
	d.rpft.Sync(c)
	for _, t := range d.tables {
		t.Sync(c)
	}
	for _, crc := range d.crcs {
		crc.Sync(c)
	}
	c.U64(&d.preReads)
	c.U64(&d.failedPreReads)
	c.U64(&d.crcInsertsNeeded)
	c.U64(&d.discardedWBs)
}
