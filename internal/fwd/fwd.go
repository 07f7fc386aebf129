// Package fwd models the forwarding buffer of the base machine (paper
// Section 2.2.1): result values remain readable by consuming instructions
// for a fixed number of cycles after they are computed, turning the
// execute→register-read loose loop into a tight loop. The paper's base
// machine keeps 9 cycles of results — 5 to cover long-latency operations
// and limit register file write ports, 4 to cover the write-back flight
// time to the register file.
package fwd

import "loosesim/internal/regfile"

// never is a completion time no real producer can have.
const never int64 = -(1 << 60)

// Buffer records, per physical register, when its most recent value was
// computed, and answers whether a consumer executing at a given cycle can
// obtain the value from forwarding.
type Buffer struct {
	depth     int64   // simlint:nosync configuration, rebuilt by New
	wbDelay   int64   // simlint:nosync configuration, rebuilt by New
	completed []int64 // [PReg] -> completion cycle, or never

	hits, misses uint64
}

// New returns a forwarding buffer covering `depth` cycles of results for a
// machine with numPhys physical registers. wbDelay is the number of cycles
// after completion at which the value is written into the register file.
func New(numPhys, depth, wbDelay int) *Buffer {
	b := &Buffer{depth: int64(depth), wbDelay: int64(wbDelay), completed: make([]int64, numPhys)}
	for i := range b.completed {
		b.completed[i] = never
	}
	return b
}

// Depth returns the number of cycles results stay forwardable.
func (b *Buffer) Depth() int { return int(b.depth) }

// WritebackDelay returns the completion-to-register-file delay in cycles.
func (b *Buffer) WritebackDelay() int { return int(b.wbDelay) }

// Record notes that preg's value was computed at the given cycle.
func (b *Buffer) Record(p regfile.PReg, cycle int64) {
	if p != regfile.PRegInvalid {
		b.completed[p] = cycle
	}
}

// Available reports whether a consumer executing at cycle `now` can read
// preg from the forwarding network: the value must have been computed, and
// no more than Depth-1 cycles ago. It records hit/miss statistics.
func (b *Buffer) Available(p regfile.PReg, now int64) bool {
	if p == regfile.PRegInvalid {
		return false
	}
	c := b.completed[p]
	if c != never && now >= c && now-c < b.depth {
		b.hits++
		return true
	}
	b.misses++
	return false
}

// WritebackCycle returns the cycle at which a value completed at `complete`
// lands in the register file.
func (b *Buffer) WritebackCycle(complete int64) int64 { return complete + b.wbDelay }

// Invalidate clears the entry for a physical register. Called when the
// register is reallocated by the renamer so a stale value from the previous
// allocation can never be forwarded.
func (b *Buffer) Invalidate(p regfile.PReg) {
	if p != regfile.PRegInvalid {
		b.completed[p] = never
	}
}

// Hits returns the number of successful forwarding lookups.
func (b *Buffer) Hits() uint64 { return b.hits }

// Misses returns the number of failed forwarding lookups.
func (b *Buffer) Misses() uint64 { return b.misses }
