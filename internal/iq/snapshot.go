package iq

import (
	"loosesim/internal/snap"
	"loosesim/internal/uop"
)

// ClusterEntries returns cluster c's entry list in age order. The slice
// is the queue's own storage — callers must treat it as read-only. It
// exists for the machine's snapshot encoder, which serializes the lists
// as live-uop indices.
func (q *Queue) ClusterEntries(c int) []*uop.UOp { return q.clusters[c].entries }

// Snapshot encodes the queue's statistics counters. The entry lists
// themselves hold pointers into the machine's live-uop set, so the
// machine serializes them as uop indices and rebuilds them through
// Insert on restore; only the counters are the queue's own state.
func (q *Queue) Snapshot(w *snap.Writer) {
	w.U64(q.inserted)
	w.U64(q.occupancySum)
	w.U64(q.retainedSum)
	w.U64(q.samples)
	w.U64(q.fullStalls)
}

// Restore overwrites the statistics counters with state encoded by
// Snapshot. Call it after the entry lists have been rebuilt — the
// re-inserts bump `inserted`, and this puts the true value back.
func (q *Queue) Restore(r *snap.Reader) {
	q.inserted = r.U64()
	q.occupancySum = r.U64()
	q.retainedSum = r.U64()
	q.samples = r.U64()
	q.fullStalls = r.U64()
}
