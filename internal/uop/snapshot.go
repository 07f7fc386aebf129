package uop

import (
	"loosesim/internal/regfile"
	"loosesim/internal/snap"
)

// Snapshot encodes the dynamic instruction into w, field by field in
// declaration order; IQStamp and IQSlot are the queue's to rebuild.
// Pointers into the record (IQ entries, event-ring slots, tracking lists)
// are not the uop's to encode — the machine serializes those as indices
// into its live-uop table.
func (u *UOp) Snapshot(w *snap.Writer) {
	u.Inst.Snapshot(w)
	w.Int(u.Thread)
	w.U64(u.Seq)
	w.Bool(u.WrongPath)
	w.Bool(u.Mispredicted)
	w.I32(int32(u.Dest))
	w.I32(int32(u.OldPhy))
	w.I32(int32(u.Src[0]))
	w.I32(int32(u.Src[1]))
	w.Int(u.NumSrc)
	w.Int(u.Cluster)
	w.Bool(u.PreRead[0])
	w.Bool(u.PreRead[1])
	w.U8(uint8(u.State))
	w.Int(u.Issues)
	w.I64(u.FetchCycle)
	w.I64(u.EnterIQCycle)
	w.I64(u.IssueCycle)
	w.I64(u.ExecCycle)
	w.I64(u.CompleteCycle)
	w.I64(u.IQFreeCycle)
	w.I64(u.SrcAvail[0])
	w.I64(u.SrcAvail[1])
	w.Bool(u.Renamed)
	w.I64(u.DataReady)
	w.I64(u.MinIssueCycle)
	w.Bool(u.InIQ)
	w.Bool(u.MemTracked)
}

// preg reads a physical-register name, accepting PRegInvalid or a
// non-negative index. The machine re-checks the upper bound against its
// register file geometry; the uop cannot know it.
func preg(r *snap.Reader) regfile.PReg {
	v := regfile.PReg(r.I32())
	if v < 0 && v != regfile.PRegInvalid {
		r.Failf("preg %d negative", v)
		return regfile.PRegInvalid
	}
	return v
}

// Restore overwrites u with state encoded by Snapshot. Structural bounds
// the record can check alone (state enum, source count, non-negative
// indices) are enforced here; geometry-dependent bounds (thread count,
// cluster count, physical-register file size) are the caller's.
func (u *UOp) Restore(r *snap.Reader) {
	u.Inst.Restore(r)
	u.Thread = r.Int()
	u.Seq = r.U64()
	u.WrongPath = r.Bool()
	u.Mispredicted = r.Bool()
	u.Dest = preg(r)
	u.OldPhy = preg(r)
	u.Src[0] = preg(r)
	u.Src[1] = preg(r)
	u.NumSrc = r.Int()
	u.Cluster = r.Int()
	u.PreRead[0] = r.Bool()
	u.PreRead[1] = r.Bool()
	u.State = State(r.U8())
	u.Issues = r.Int()
	u.FetchCycle = r.I64()
	u.EnterIQCycle = r.I64()
	u.IssueCycle = r.I64()
	u.ExecCycle = r.I64()
	u.CompleteCycle = r.I64()
	u.IQFreeCycle = r.I64()
	u.SrcAvail[0] = r.I64()
	u.SrcAvail[1] = r.I64()
	u.Renamed = r.Bool()
	u.DataReady = r.I64()
	u.MinIssueCycle = r.I64()
	u.InIQ = r.Bool()
	u.MemTracked = r.Bool()
	if u.Thread < 0 {
		r.Failf("uop thread %d negative", u.Thread)
		u.Thread = 0
	}
	if u.NumSrc < 0 || u.NumSrc > len(u.Src) {
		r.Failf("uop source count %d out of range", u.NumSrc)
		u.NumSrc = 0
	}
	if u.Cluster < 0 {
		r.Failf("uop cluster %d negative", u.Cluster)
		u.Cluster = 0
	}
	if u.State > StateSquashed {
		r.Failf("uop state %d out of range", u.State)
		u.State = StateDecode
	}
	if u.Issues < 0 {
		r.Failf("uop issue count %d negative", u.Issues)
		u.Issues = 0
	}
}
