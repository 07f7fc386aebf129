// Package regfile models register renaming and the monolithic physical
// register file of the base machine: the per-thread rename map, the free
// list, and the per-physical-register valid bit that the DRA's register
// pre-read filtering table (RPFT) observes. The register file's 3–7 cycle
// access latency is the quantity the DRA moves out of the issue-to-execute
// path, so its book-keeping here is deliberately explicit.
package regfile

import (
	"fmt"

	"loosesim/internal/isa"
)

// PReg names a physical register.
type PReg int32

// PRegInvalid marks an absent physical operand.
const PRegInvalid PReg = -1

// File is the rename subsystem: rename maps for every hardware thread, the
// shared free list, and validity state for every physical register.
//
// Validity semantics follow the paper's RPFT description (Section 5.2): a
// register's bit is cleared when the renamer allocates it as a destination
// (the producer is in flight) and set when the value is written back to the
// register file.
type File struct {
	numPhys int
	threads int // simlint:nosync geometry, rebuilt by NewFile

	rename [][]PReg // [thread][archReg] -> PReg
	free   []PReg   // stack of free physical registers
	valid  []bool   // [PReg] -> value present in the register file
	refCnt []int32  // [PReg] -> debug refcount of mapping holders
}

// MinPhysRegs is the smallest register file NewFile accepts for the given
// number of threads: each thread's architectural state consumes
// isa.NumArchRegs physical registers up front, and at least 32 more must be
// left for renaming.
func MinPhysRegs(threads int) int { return threads*isa.NumArchRegs + 32 }

// NewFile builds a rename subsystem with numPhys physical registers shared
// by the given number of threads; the registers past the threads'
// architectural state form the free list. numPhys must be at least
// MinPhysRegs(threads).
func NewFile(numPhys, threads int) *File {
	if numPhys < MinPhysRegs(threads) {
		panic(fmt.Sprintf("regfile: %d physical registers cannot back %d threads", numPhys, threads))
	}
	f := &File{
		numPhys: numPhys,
		threads: threads,
		rename:  make([][]PReg, threads),
		valid:   make([]bool, numPhys),
		refCnt:  make([]int32, numPhys),
		// The free stack can hold at most every physical register, so this
		// capacity makes Free's push growth-free for the machine's lifetime.
		free: make([]PReg, 0, numPhys),
	}
	next := PReg(0)
	for t := 0; t < threads; t++ {
		f.rename[t] = make([]PReg, isa.NumArchRegs)
		for a := 0; a < isa.NumArchRegs; a++ {
			f.rename[t][a] = next
			f.valid[next] = true // architectural state is committed
			f.refCnt[next] = 1
			next++
		}
	}
	for p := next; int(p) < numPhys; p++ {
		f.free = append(f.free, p)
	}
	return f
}

// NumPhys returns the size of the physical register file.
func (f *File) NumPhys() int { return f.numPhys }

// FreeCount returns the number of unallocated physical registers.
func (f *File) FreeCount() int { return len(f.free) }

// Lookup returns the current physical mapping of an architectural source.
func (f *File) Lookup(thread int, r isa.Reg) PReg {
	if !r.Valid() {
		return PRegInvalid
	}
	return f.rename[thread][r]
}

// Rename allocates a new physical register for a destination write,
// clearing its valid bit (producer in flight), and returns the new mapping
// together with the previous mapping (to be freed when the instruction
// retires, or re-installed if it is squashed). It returns ok=false when the
// free list is empty, in which case rename must stall.
func (f *File) Rename(thread int, dest isa.Reg) (newP, oldP PReg, ok bool) {
	if !dest.Valid() {
		return PRegInvalid, PRegInvalid, true
	}
	n := len(f.free)
	if n == 0 {
		return PRegInvalid, PRegInvalid, false
	}
	newP = f.free[n-1]
	f.free = f.free[:n-1]
	oldP = f.rename[thread][dest]
	f.rename[thread][dest] = newP
	f.valid[newP] = false
	f.refCnt[newP] = 1
	return newP, oldP, true
}

// Writeback marks a physical register's value as present in the register
// file (the RPFT bit becomes set).
func (f *File) Writeback(p PReg) {
	if p != PRegInvalid {
		f.valid[p] = true
	}
}

// Valid reports whether the value for p is present in the register file.
// This is exactly the RPFT query the DRA performs at rename.
func (f *File) Valid(p PReg) bool {
	return p != PRegInvalid && f.valid[p]
}

// Free returns a physical register to the free list. Called at retire for
// the destination's previous mapping, and at squash for the squashed
// instruction's own mapping.
func (f *File) Free(p PReg) {
	if p == PRegInvalid {
		return
	}
	if f.refCnt[p] == 0 {
		panic(fmt.Sprintf("regfile: double free of p%d", p))
	}
	f.refCnt[p] = 0
	// simlint:prealloc free stack sized to numPhys at construction
	f.free = append(f.free, p)
}

// SquashRestore undoes a rename performed for a squashed instruction: the
// architectural register's mapping reverts to oldP and newP returns to the
// free list. Squashes must be applied youngest-first so the mappings unwind
// in reverse order.
func (f *File) SquashRestore(thread int, dest isa.Reg, newP, oldP PReg) {
	if !dest.Valid() {
		return
	}
	if f.rename[thread][dest] != newP {
		panic(fmt.Sprintf("regfile: out-of-order squash restore for t%d r%d (have p%d, squashing p%d)",
			thread, dest, f.rename[thread][dest], newP))
	}
	f.rename[thread][dest] = oldP
	f.Free(newP)
}

// InFlight returns the number of physical registers currently allocated
// beyond the committed architectural state.
func (f *File) InFlight() int {
	return f.numPhys - len(f.free) - f.threads*isa.NumArchRegs
}
