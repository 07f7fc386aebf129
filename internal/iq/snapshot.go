package iq

import (
	"sort"

	"loosesim/internal/uop"
)

// ClusterEntries returns cluster c's held entries in insertion order, in a
// fresh slice. It exists for the machine's snapshot encoder, which
// serializes the lists as live-uop indices and rebuilds the queue on
// restore by re-inserting them in this order.
func (q *Queue) ClusterEntries(c int) []*uop.UOp {
	var out []*uop.UOp
	for i := range q.slots {
		if u := q.slots[i].u; u != nil && u.Cluster == c {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IQStamp < out[j].IQStamp })
	return out
}

// ReadyTimes returns every register's wakeup time, indexed by register, in
// a fresh slice. A restore hands the times back through SetReady before it
// re-inserts any entry, so the inserts park against the restored times.
func (q *Queue) ReadyTimes() []int64 {
	times := make([]int64, len(q.regs)-1)
	for p := range times {
		times[p] = q.regs[p].at
	}
	return times
}
