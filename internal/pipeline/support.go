package pipeline

import (
	"loosesim/internal/iq"
	"loosesim/internal/uop"
)

// inf is a cycle later than any the simulation reaches: the IQ's wakeup
// time of a register whose producer has announced none.
const inf = iq.Unknown

// deque is a FIFO of uops with O(1) amortised pop-front and tail
// truncation, used for per-thread windows and decode pipes.
type deque struct {
	buf  []*uop.UOp
	head int
}

func (d *deque) push(u *uop.UOp) {
	// simlint:prealloc grows to the window high-water mark once, then head-compacted and reused
	d.buf = append(d.buf, u)
}

func (d *deque) len() int { return len(d.buf) - d.head }

// items returns the elements, oldest first. The slice aliases the deque.
func (d *deque) items() []*uop.UOp { return d.buf[d.head:] }

// at returns the i-th element from the front (0 = oldest).
func (d *deque) at(i int) *uop.UOp { return d.buf[d.head+i] }

func (d *deque) front() *uop.UOp {
	if d.len() == 0 {
		return nil
	}
	return d.buf[d.head]
}

func (d *deque) popFront() *uop.UOp {
	u := d.buf[d.head]
	d.buf[d.head] = nil
	d.head++
	if d.head > 4096 && d.head*2 > len(d.buf) {
		n := copy(d.buf, d.buf[d.head:])
		for i := n; i < len(d.buf); i++ {
			d.buf[i] = nil
		}
		d.buf = d.buf[:n]
		d.head = 0
	}
	return u
}

// truncFrom drops every element at relative index >= i.
func (d *deque) truncFrom(i int) {
	for j := d.head + i; j < len(d.buf); j++ {
		d.buf[j] = nil
	}
	d.buf = d.buf[:d.head+i]
}

// Event kinds, processed in this order within a cycle so same-cycle
// interactions resolve deterministically: completions publish results
// before loads update wakeup state, and executions observe both.
const (
	evComplete = iota
	evLoadResolve
	evExec
	evWriteback
	evIQFree
	numEvKinds
)

// event is one scheduled pipeline occurrence. tag snapshots u.Issues at
// scheduling time so events belonging to a superseded issue of the same
// instruction are ignored; gen snapshots the destination register's
// generation for writeback events.
type event struct {
	u   *uop.UOp
	tag int32
	gen uint32
}

// slotCap is the event capacity preallocated per ring slot. Per-cycle
// per-kind event counts are bounded by machine widths (at most one evExec
// and one evIQFree per cluster per cycle); completions can pile deeper on
// pathological latency coincidences, in which case the slot grows once via
// append and keeps the larger capacity.
const slotCap = 8

// eventRing is a calendar queue: slot c&(len(slots)-1) holds the events of
// cycle c for one event kind. The slot count is a power of two above the
// config's event horizon (Config.eventHorizon), so no two pending cycles
// share a slot. Every slot is carved out of one backing slab so the
// per-cycle schedule path never grows a slot from nil — before the slab,
// slot-by-slot append growth was ~90% of the machine's allocations.
type eventRing struct {
	slots [][]event
}

// newEventRings builds one ring per event kind, each of size slots (a
// power of two), from one slot table and one event slab.
func newEventRings(size int) [numEvKinds]eventRing {
	var rings [numEvKinds]eventRing
	table := make([][]event, numEvKinds*size)
	slab := make([]event, numEvKinds*size*slotCap)
	for i := range table {
		table[i] = slab[i*slotCap : i*slotCap : (i+1)*slotCap]
	}
	for k := range rings {
		rings[k].slots = table[k*size : (k+1)*size : (k+1)*size]
	}
	return rings
}

// slot returns the slot of the given cycle. The length check is the
// ring's only bounds check: with it the compiler proves the masked index
// in range.
func (r *eventRing) slot(cycle int64) *[]event {
	s := r.slots
	if len(s) == 0 {
		panic("pipeline: event ring used before newEventRings")
	}
	return &s[cycle&int64(len(s)-1)]
}

func (r *eventRing) schedule(cycle int64, e event) {
	s := r.slot(cycle)
	// simlint:prealloc slots carved from the newEventRings slab; overflow growth is retained
	*s = append(*s, e)
}

// take returns and clears the events for the given cycle.
func (r *eventRing) take(cycle int64) []event {
	s := r.slot(cycle)
	evs := *s
	*s = evs[:0]
	return evs
}
