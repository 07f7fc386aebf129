package isa

import "loosesim/internal/snap"

// Sync encodes or decodes the static instruction (byte-stable; part of
// the machine checkpoint format). Decoding rejects out-of-range
// operation classes and register names.
func (in *Inst) Sync(c *snap.Codec) {
	c.U64(&in.PC)
	c.U8((*uint8)(&in.Op))
	c.U16((*uint16)(&in.Dest))
	c.U16((*uint16)(&in.Src[0]))
	c.U16((*uint16)(&in.Src[1]))
	c.U64(&in.Addr)
	c.Bool(&in.Taken)
	if c.Decoding() {
		if int(in.Op) >= NumOpClasses {
			c.Failf("inst op class %d out of range", in.Op)
		}
		if !validReg(in.Dest) || !validReg(in.Src[0]) || !validReg(in.Src[1]) {
			c.Failf("inst register out of range: d=%d s=[%d %d]", in.Dest, in.Src[0], in.Src[1])
		}
	}
}

// validReg accepts a register that is either a real architectural
// register or the explicit RegInvalid sentinel; anything in between is
// corrupt (the generator never emits it, and the rename table would
// index out of range on it).
func validReg(r Reg) bool { return r.Valid() || r == RegInvalid }
