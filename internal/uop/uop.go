// Package uop defines the dynamic (in-flight) instruction record shared by
// the instruction queue, the DRA, and the pipeline driver. A UOp wraps a
// static isa.Inst with renamed registers, cluster assignment, dependence
// links, and the timestamps that the loop analysis reports are built from.
package uop

import (
	"fmt"

	"loosesim/internal/isa"
	"loosesim/internal/regfile"
)

// State tracks where an in-flight instruction is in its lifecycle.
type State uint8

// Lifecycle states. A mis-speculated instruction moves backwards from
// Issued (or Done) to Waiting when the IQ reissues it — that backwards edge
// is exactly a loose-loop recovery.
const (
	// StateDecode: traversing the DEC-IQ portion of the pipeline.
	StateDecode State = iota
	// StateWaiting: in the IQ, not (or no longer) issued.
	StateWaiting
	// StateIssued: selected for issue; traversing IQ-EX or executing.
	StateIssued
	// StateDone: result produced; awaiting in-order retire.
	StateDone
	// StateRetired: committed and removed from the window.
	StateRetired
	// StateSquashed: killed by a branch mis-speculation or trap.
	StateSquashed
)

var stateNames = [...]string{"decode", "waiting", "issued", "done", "retired", "squashed"}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// NoCycle is the sentinel for an event that has not happened.
const NoCycle int64 = -1

// UOp is one dynamic instruction.
type UOp struct {
	// Inst is the static instruction.
	Inst isa.Inst
	// Thread is the hardware thread the instruction belongs to.
	Thread int
	// Seq is a globally monotonic fetch sequence number; it defines age
	// for squashing (larger = younger).
	Seq uint64
	// WrongPath marks instructions fetched past a mispredicted branch;
	// they execute (useless work) but never retire.
	WrongPath bool
	// Mispredicted marks a branch whose predicted direction was wrong.
	Mispredicted bool

	// Renamed registers.
	Dest   regfile.PReg
	OldPhy regfile.PReg // previous mapping of Inst.Dest, freed at retire
	Src    [2]regfile.PReg
	NumSrc int

	// Cluster is the functional-unit cluster assigned at decode. The DRA
	// routes this instruction's operands to this cluster's CRC.
	Cluster int

	// PreRead marks sources whose value was pre-read from the register
	// file into the IQ payload at rename (DRA completed operands), or
	// fetched into the payload by operand-miss recovery.
	PreRead [2]bool

	// State machine.
	State State
	// Issues counts issue attempts; Issues-1 is the reissue (useless
	// work) count for this instruction.
	Issues int

	// Timestamps (cycles), NoCycle until the event occurs.
	FetchCycle    int64
	EnterIQCycle  int64
	IssueCycle    int64
	ExecCycle     int64 // cycle execution began (operands read)
	CompleteCycle int64 // cycle the result is available to consumers
	IQFreeCycle   int64 // cycle the IQ entry may be reclaimed

	// SrcAvail records when each source value actually became available
	// at the functional units (producer completion, or 0 for committed
	// state). Feeds the Figure 6 operand-gap CDF.
	SrcAvail [2]int64

	// Renamed marks that the instruction passed the rename stage and so
	// holds physical-register state that a squash must unwind.
	Renamed bool

	// DataReady is the cycle a load's data is actually available; set
	// when the cache resolves the access.
	DataReady int64

	// MinIssueCycle gates re-selection after a mis-speculation: the IQ
	// cannot reissue the instruction before the recovery signal (and, for
	// operand misses, the register file read into the payload) arrives.
	MinIssueCycle int64

	// InIQ marks the instruction as holding an IQ entry.
	InIQ bool
	// IQStamp is the queue's insertion stamp: it orders a cluster's
	// waiting entries. IQSlot is the queue slot the entry occupies. Neither
	// is encoded by Sync — a restore re-inserts the entries in order,
	// which stamps them afresh in the same relative order.
	IQStamp uint64 // simlint:nosync restamped by the restore's IQ re-insert
	IQSlot  int32  // simlint:nosync reassigned by the restore's IQ re-insert

	// MemTracked marks a load already recorded in the memory-ordering
	// tracking list (set on first successful execution).
	MemTracked bool
}

// New returns a UOp in decode state with timestamps cleared. The pipeline's
// fetch stage recycles records through a Pool instead; New remains for
// construction off the per-cycle path (tests, tools).
func New(in isa.Inst, thread int, seq uint64, fetchCycle int64) *UOp {
	u := &UOp{}
	u.Reset()
	u.Inst, u.Thread, u.Seq, u.FetchCycle = in, thread, seq, fetchCycle
	return u
}

// Reset returns the record to the pre-fetch state New establishes: decode
// state, invalid registers, every timestamp at NoCycle, all speculation and
// tracking flags cleared. A recycled record is indistinguishable from a
// fresh one.
func (u *UOp) Reset() {
	*u = UOp{
		State:         StateDecode,
		FetchCycle:    NoCycle,
		EnterIQCycle:  NoCycle,
		IssueCycle:    NoCycle,
		ExecCycle:     NoCycle,
		CompleteCycle: NoCycle,
		IQFreeCycle:   NoCycle,
		Dest:          regfile.PRegInvalid,
		OldPhy:        regfile.PRegInvalid,
		Src:           [2]regfile.PReg{regfile.PRegInvalid, regfile.PRegInvalid},
		SrcAvail:      [2]int64{NoCycle, NoCycle},
		DataReady:     NoCycle,
	}
}

// poolSlab is the number of records one refill allocates.
const poolSlab = 1024

// Pool hands out reset UOp records, recycling the ones returned to it. The
// caller owns the recycling discipline: a record must not be Put back while
// anything — a scheduled event, a queue, a tracking list — still holds a
// pointer to it. Not safe for concurrent use; the simulator is
// single-threaded by design.
type Pool struct {
	free []*UOp
}

// Get returns a record in decode state, exactly as New would build it.
func (p *Pool) Get(in isa.Inst, thread int, seq uint64, fetchCycle int64) *UOp {
	if len(p.free) == 0 {
		// simlint:ignore perf slab refill amortised over poolSlab records; inlined here by the compiler
		p.refill()
	}
	u := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	u.Reset()
	u.Inst, u.Thread, u.Seq, u.FetchCycle = in, thread, seq, fetchCycle
	return u
}

// Put returns a dead record for reuse. The caller must guarantee no live
// references remain.
func (p *Pool) Put(u *UOp) {
	// simlint:prealloc capacity provisioned by refill slabs; Put never exceeds what Get drained
	p.free = append(p.free, u)
}

// refill grows the free list by one slab. A single backing allocation
// serves poolSlab fetches; in steady state (window-bounded in-flight count
// plus the recycling delay) refill stops being called at all.
//
// simlint:coldpath slab refill amortised over poolSlab records
func (p *Pool) refill() {
	slab := make([]UOp, poolSlab)
	for i := range slab {
		p.free = append(p.free, &slab[i])
	}
}

// IsLoad reports whether the instruction is a load.
func (u *UOp) IsLoad() bool { return u.Inst.Op == isa.Load }

// IsBranch reports whether the instruction is a branch.
func (u *UOp) IsBranch() bool { return u.Inst.Op == isa.Branch }

// Older reports whether u is older than v in fetch order.
func (u *UOp) Older(v *UOp) bool { return u.Seq < v.Seq }

// String renders the uop for debugging.
func (u *UOp) String() string {
	return fmt.Sprintf("uop{#%d t%d %s %s cl%d}", u.Seq, u.Thread, u.Inst.Op, u.State, u.Cluster)
}
