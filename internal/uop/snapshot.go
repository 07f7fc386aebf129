package uop

import (
	"loosesim/internal/regfile"
	"loosesim/internal/snap"
)

// Sync encodes or decodes the dynamic instruction, field by field in
// declaration order; IQStamp and IQSlot are the queue's to rebuild.
// Pointers into the record (IQ entries, event-ring slots, tracking lists)
// are not the uop's to encode — the machine serializes those as indices
// into its live-uop table. Decoding enforces the structural bounds the
// record can check alone (state enum, source count, non-negative
// indices); geometry-dependent bounds (thread count, cluster count,
// physical-register file size) are the caller's.
func (u *UOp) Sync(c *snap.Codec) {
	u.Inst.Sync(c)
	c.Int(&u.Thread)
	c.U64(&u.Seq)
	c.Bool(&u.WrongPath)
	c.Bool(&u.Mispredicted)
	c.I32((*int32)(&u.Dest))
	c.I32((*int32)(&u.OldPhy))
	c.I32((*int32)(&u.Src[0]))
	c.I32((*int32)(&u.Src[1]))
	c.Int(&u.NumSrc)
	c.Int(&u.Cluster)
	c.Bool(&u.PreRead[0])
	c.Bool(&u.PreRead[1])
	c.U8((*uint8)(&u.State))
	c.Int(&u.Issues)
	c.I64(&u.FetchCycle)
	c.I64(&u.EnterIQCycle)
	c.I64(&u.IssueCycle)
	c.I64(&u.ExecCycle)
	c.I64(&u.CompleteCycle)
	c.I64(&u.IQFreeCycle)
	c.I64(&u.SrcAvail[0])
	c.I64(&u.SrcAvail[1])
	c.Bool(&u.Renamed)
	c.I64(&u.DataReady)
	c.I64(&u.MinIssueCycle)
	c.Bool(&u.InIQ)
	c.Bool(&u.MemTracked)
	if !c.Decoding() {
		return
	}
	// A physical-register name is PRegInvalid or a non-negative index.
	for _, p := range []*regfile.PReg{&u.Dest, &u.OldPhy, &u.Src[0], &u.Src[1]} {
		if *p < 0 && *p != regfile.PRegInvalid {
			c.Failf("preg %d negative", *p)
			*p = regfile.PRegInvalid
		}
	}
	if u.Thread < 0 {
		c.Failf("uop thread %d negative", u.Thread)
		u.Thread = 0
	}
	if u.NumSrc < 0 || u.NumSrc > len(u.Src) {
		c.Failf("uop source count %d out of range", u.NumSrc)
		u.NumSrc = 0
	}
	if u.Cluster < 0 {
		c.Failf("uop cluster %d negative", u.Cluster)
		u.Cluster = 0
	}
	if u.State > StateSquashed {
		c.Failf("uop state %d out of range", u.State)
		u.State = StateDecode
	}
	if u.Issues < 0 {
		c.Failf("uop issue count %d negative", u.Issues)
		u.Issues = 0
	}
}
