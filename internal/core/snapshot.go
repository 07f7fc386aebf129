package core

import (
	"loosesim/internal/regfile"
	"loosesim/internal/snap"
)

// Snapshot encodes the RPFT's valid bits.
func (r *RPFT) Snapshot(w *snap.Writer) { w.Bools(r.bits) }

// Restore overwrites the bits; r must have the snapshot's size.
func (r *RPFT) Restore(rd *snap.Reader) {
	bits := rd.Bools(len(r.bits))
	if len(bits) != len(r.bits) {
		rd.Failf("rpft: %d bits, want %d", len(bits), len(r.bits))
		return
	}
	copy(r.bits, bits)
}

// Snapshot encodes one CRC's entries and statistics. Policy and timeout
// are configuration, rebuilt by the constructor.
func (c *CRC) Snapshot(w *snap.Writer) {
	for _, e := range c.entries {
		w.I32(int32(e.preg))
		w.Bool(e.valid)
		w.I64(e.inserted)
		w.I64(e.lastUse)
	}
	w.U64(c.hits)
	w.U64(c.misses)
	w.U64(c.inserts)
	w.U64(c.invalidates)
	w.U64(c.expirations)
}

// Restore overwrites the mutable state and rebuilds the register index;
// c must have the snapshot's capacity and register range. The index holds
// one entry per register, so a register valid in two entries (or a valid
// entry naming no register) is corrupt.
func (c *CRC) Restore(r *snap.Reader) {
	numPhys := len(c.slot)
	clear(c.slot)
	for i := range c.entries {
		e := crcEntry{
			preg:     regfile.PReg(r.I32()),
			valid:    r.Bool(),
			inserted: r.I64(),
			lastUse:  r.I64(),
		}
		if e.preg != regfile.PRegInvalid && (e.preg < 0 || int(e.preg) >= numPhys) {
			r.Failf("crc entry %d: preg %d out of range", i, e.preg)
			return
		}
		if e.valid {
			if e.preg == regfile.PRegInvalid {
				r.Failf("crc entry %d: valid without a register", i)
				return
			}
			if c.slot[e.preg] != 0 {
				r.Failf("crc entry %d: preg %d already valid in entry %d", i, e.preg, c.slot[e.preg]-1)
				return
			}
			c.slot[e.preg] = int32(i) + 1
		}
		c.entries[i] = e
	}
	c.hits = r.U64()
	c.misses = r.U64()
	c.inserts = r.U64()
	c.invalidates = r.U64()
	c.expirations = r.U64()
}

// Snapshot encodes one insertion table's counters and saturation count.
func (t *InsertionTable) Snapshot(w *snap.Writer) {
	for _, c := range t.counts {
		w.U8(c)
	}
	w.U64(t.saturations)
}

// Restore overwrites the mutable state; t must have the snapshot's size.
// Counts beyond the saturation ceiling are corrupt.
func (t *InsertionTable) Restore(r *snap.Reader) {
	for i := range t.counts {
		v := r.U8()
		if v > t.max {
			r.Failf("insertion count %d exceeds max %d", v, t.max)
			return
		}
		t.counts[i] = v
	}
	t.saturations = r.U64()
}

// Snapshot encodes the whole DRA: RPFT, every bank's insertion table and
// CRC, and the classification statistics.
func (d *DRA) Snapshot(w *snap.Writer) {
	d.rpft.Snapshot(w)
	for _, t := range d.tables {
		t.Snapshot(w)
	}
	for _, c := range d.crcs {
		c.Snapshot(w)
	}
	w.U64(d.preReads)
	w.U64(d.failedPreReads)
	w.U64(d.crcInsertsNeeded)
	w.U64(d.discardedWBs)
}

// Restore overwrites d's mutable state with state encoded by Snapshot.
// d must have been constructed by New with the same config and numPhys.
func (d *DRA) Restore(r *snap.Reader) {
	d.rpft.Restore(r)
	for _, t := range d.tables {
		t.Restore(r)
	}
	for _, c := range d.crcs {
		c.Restore(r)
	}
	d.preReads = r.U64()
	d.failedPreReads = r.U64()
	d.crcInsertsNeeded = r.U64()
	d.discardedWBs = r.U64()
}
