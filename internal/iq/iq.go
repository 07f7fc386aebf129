// Package iq models the unified, clustered instruction queue of the base
// machine (paper Section 2): a 128-entry window whose entries are slotted at
// decode to one of eight functional-unit clusters, so that selecting 8
// instructions out of 128 reduces to selecting 1 out of ~16 per cluster.
//
// The IQ is where the load resolution loop exerts its secondary cost, IQ
// pressure (Section 2.2.2): issued instructions must be *retained* until the
// execution stage confirms they will not be reissued, which takes the loop
// delay (IQ-EX latency plus feedback). Entries of issued-but-unconfirmed
// instructions are dead weight that shrinks the effective window.
package iq

import (
	"fmt"

	"loosesim/internal/uop"
)

// Config sizes the queue.
type Config struct {
	// Entries is the total queue capacity (128 in the base machine).
	Entries int
	// Clusters is the number of functional-unit clusters instructions are
	// slotted across (8 in the base machine).
	Clusters int
}

// Queue is the clustered instruction queue. Each cluster's entry list is
// kept in insertion order. Alongside it, each cluster keeps its Waiting
// entries — the only ones select can pick — as a waiting list in the same
// order, so select never walks the entries retained after issue. The queue
// owns every state change of a held entry into or out of Waiting (Issue,
// Revert) and out of the retained population (Retire, Remove), which keeps
// the waiting lists and the retained count exact without rescanning.
type Queue struct {
	cfg      Config
	clusters []cluster
	count    int
	retained int    // entries in StateIssued or StateDone
	stamp    uint64 // next insertion stamp (uop.IQStamp)

	inserted     uint64
	occupancySum uint64
	retainedSum  uint64
	samples      uint64
	fullStalls   uint64
}

// cluster is one functional-unit cluster's share of the queue.
type cluster struct {
	entries []*uop.UOp // every held entry, insertion order
	waiting []*uop.UOp // the StateWaiting subset, insertion order
}

// New returns an empty queue.
func New(cfg Config) *Queue {
	if cfg.Entries < 1 || cfg.Clusters < 1 {
		panic(fmt.Sprintf("iq: bad config %+v", cfg))
	}
	q := &Queue{cfg: cfg, clusters: make([]cluster, cfg.Clusters)}
	// Slotting is least-loaded but nothing caps one cluster short of the
	// whole queue, so each list is provisioned to the full capacity —
	// Insert and Revert must never grow on the per-cycle path.
	for c := range q.clusters {
		q.clusters[c] = cluster{
			entries: make([]*uop.UOp, 0, cfg.Entries),
			waiting: make([]*uop.UOp, 0, cfg.Entries),
		}
	}
	return q
}

// Config returns the queue configuration.
func (q *Queue) Config() Config { return q.cfg }

// Len returns the number of occupied entries.
func (q *Queue) Len() int { return q.count }

// Free returns the number of unoccupied entries.
func (q *Queue) Free() int { return q.cfg.Entries - q.count }

// Full reports whether the queue has no free entries.
func (q *Queue) Full() bool { return q.count >= q.cfg.Entries }

// ClusterLen returns the number of entries slotted to cluster c.
func (q *Queue) ClusterLen(c int) int { return len(q.clusters[c].entries) }

// LeastLoadedCluster returns the cluster with the fewest queue entries,
// breaking ties toward lower indices. This is the decode-time slotting
// policy: it approximates the uniform distribution the paper assumes.
func (q *Queue) LeastLoadedCluster() int {
	best, bestLen := 0, q.cfg.Entries+1
	for c := range q.clusters {
		if n := len(q.clusters[c].entries); n < bestLen {
			best, bestLen = c, n
		}
	}
	return best
}

// Insert places u (already slotted to u.Cluster) into the queue. It returns
// false, counting a structural stall, if the queue is full. u's state must
// be one an entry can hold: Waiting, Issued, Done or Retired.
func (q *Queue) Insert(u *uop.UOp) bool {
	if q.Full() {
		q.fullStalls++
		return false
	}
	if uint(u.Cluster) >= uint(len(q.clusters)) || u.InIQ ||
		u.State == uop.StateDecode || u.State == uop.StateSquashed {
		panic(fmt.Sprintf("iq: uop %v cannot take an entry (InIQ %v)", u, u.InIQ))
	}
	cl := &q.clusters[u.Cluster]
	// simlint:prealloc cluster lists sized to Entries at construction
	cl.entries = append(cl.entries, u)
	q.count++
	q.inserted++
	u.InIQ = true
	u.IQStamp = q.stamp
	q.stamp++
	if u.State == uop.StateWaiting {
		cl.wait(u)
	} else if retains(u.State) {
		q.retained++
	}
	return true
}

// retains reports whether a held entry in state s counts as retained.
func retains(s uop.State) bool { return s == uop.StateIssued || s == uop.StateDone }

// Remove releases u's entry (retire-side eviction or squash).
func (q *Queue) Remove(u *uop.UOp) {
	if !u.InIQ {
		return
	}
	cl := &q.clusters[u.Cluster]
	n := len(cl.entries)
	if cl.entries = drop(cl.entries, u); len(cl.entries) == n {
		panic(fmt.Sprintf("iq: %v marked InIQ but not found", u))
	}
	q.count--
	u.InIQ = false
	if u.State == uop.StateWaiting {
		cl.waiting = drop(cl.waiting, u)
	} else if retains(u.State) {
		q.retained--
	}
}

// drop deletes u from list, keeping the order of the rest. A list without
// u comes back unchanged.
func drop(list []*uop.UOp, u *uop.UOp) []*uop.UOp {
	for i, e := range list {
		if e == u {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// wait adds u to the waiting list at the position its insertion stamp
// fixes: after every older entry, before every younger one.
func (cl *cluster) wait(u *uop.UOp) {
	// simlint:prealloc waiting lists sized to Entries at construction
	list := append(cl.waiting, u)
	for i := len(list) - 1; i > 0 && list[i-1].IQStamp > u.IQStamp; i-- {
		list[i], list[i-1] = list[i-1], u
	}
	cl.waiting = list
}

// Issue moves an entry select returned from Waiting to Issued. The entry
// stays held, now counted as retained, until Remove reclaims it.
func (q *Queue) Issue(u *uop.UOp) {
	cl := &q.clusters[u.Cluster]
	cl.waiting = drop(cl.waiting, u)
	u.State = uop.StateIssued
	q.retained++
}

// Revert is loose-loop recovery at the queue: an issued instruction (the
// only kind the execution stage sends back) returns to Waiting and, while
// it holds its entry, rejoins its cluster's waiting list at its original
// insertion position, so select sees it exactly where it always was.
func (q *Queue) Revert(u *uop.UOp) {
	u.State = uop.StateWaiting
	if u.InIQ {
		q.retained--
		q.clusters[u.Cluster].wait(u)
	}
}

// Retire moves a completed instruction from Done to Retired. Its entry, if
// not yet reclaimed, is held until its IQ-free event but no longer counts
// as retained.
func (q *Queue) Retire(u *uop.UOp) {
	if u.InIQ && retains(u.State) {
		q.retained--
	}
	u.State = uop.StateRetired
}

// Wakeup is the operand-readiness view select evaluates: the issue stage
// fills it once per cycle.
type Wakeup struct {
	// Cycle is the current cycle. An entry whose MinIssueCycle is later is
	// still waiting for its recovery signal.
	Cycle int64
	// Horizon is the latest wakeup time that counts as ready: the cycle an
	// instruction selected now would reach the functional units.
	Horizon int64
	// ReadyAt is the per-physical-register wakeup belief.
	ReadyAt []int64
}

// SelectOldestReady models the per-cluster select logic (one issue per
// cluster per cycle): it returns the oldest waiting instruction in cluster
// c, at or after position from of the cluster's waiting list, whose
// recovery gate has passed and whose sources w believes ready, or nil. The
// second result is the position after the returned entry, from which a
// caller that rejects it on a further condition resumes the search.
func (q *Queue) SelectOldestReady(c, from int, w *Wakeup) (*uop.UOp, int) {
	list := q.clusters[c].waiting
next:
	for i := uint(from); i < uint(len(list)); i++ {
		u := list[i]
		if w.Cycle < u.MinIssueCycle {
			continue
		}
		for s, p := range u.Src {
			if s >= u.NumSrc {
				break
			}
			if w.ReadyAt[p] > w.Horizon {
				continue next
			}
		}
		return u, int(i) + 1
	}
	return nil, len(list)
}

// ForEach visits every queue entry in cluster-major, age-minor order.
func (q *Queue) ForEach(f func(*uop.UOp)) {
	for c := range q.clusters {
		for _, u := range q.clusters[c].entries {
			f(u)
		}
	}
}

// Retained returns the number of entries held by instructions that have
// issued (or completed) but whose entries have not yet been reclaimed —
// the IQ-pressure population.
func (q *Queue) Retained() int { return q.retained }

// Sample records one cycle's occupancy for the pressure statistics.
func (q *Queue) Sample() {
	q.samples++
	q.occupancySum += uint64(q.count)
	q.retainedSum += uint64(q.retained)
}

// MeanOccupancy returns the average sampled occupancy.
func (q *Queue) MeanOccupancy() float64 {
	if q.samples == 0 {
		return 0
	}
	return float64(q.occupancySum) / float64(q.samples)
}

// MeanRetained returns the average sampled count of issued-but-retained
// entries — the paper's "already issued instructions ... waiting for the
// load to resolve" population.
func (q *Queue) MeanRetained() float64 {
	if q.samples == 0 {
		return 0
	}
	return float64(q.retainedSum) / float64(q.samples)
}

// FullStalls returns the number of rejected inserts.
func (q *Queue) FullStalls() uint64 { return q.fullStalls }

// Inserted returns the number of successful inserts.
func (q *Queue) Inserted() uint64 { return q.inserted }
