package regfile

import "loosesim/internal/snap"

// Sync encodes or decodes the rename subsystem's mutable state: the
// per-thread rename maps, the free stack (order matters — allocation
// order feeds determinism), the valid bits, and the debug refcounts.
// Geometry (numPhys, threads) is derived from the machine config and not
// encoded: f must have been constructed by NewFile with the snapshot's
// geometry. Decoding rejects any other geometry and any register name
// outside the file.
func (f *File) Sync(c *snap.Codec) {
	for _, m := range f.rename {
		c.Fixed(len(m))
		for a := range m {
			c.I32((*int32)(&m[a]))
		}
	}
	n := c.Len(len(f.free), f.numPhys)
	if c.Decoding() {
		f.free = f.free[:n] // NewFile gives the stack room for every register
	}
	for i := range f.free {
		c.I32((*int32)(&f.free[i]))
	}
	c.Bools(f.valid)
	c.Fixed(len(f.refCnt))
	for i := range f.refCnt {
		c.I32(&f.refCnt[i])
	}
	if !c.Decoding() {
		return
	}
	inFile := func(p PReg) bool { return p >= 0 && int(p) < f.numPhys }
	for t, m := range f.rename {
		for a, p := range m {
			if !inFile(p) {
				c.Failf("rename map thread %d arch %d: preg %d out of range", t, a, p)
				return
			}
		}
	}
	for i, p := range f.free {
		if !inFile(p) {
			c.Failf("free list entry %d: preg %d out of range", i, p)
			return
		}
	}
}
