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
//
// Wakeup is producer-driven, as in the paper's machine: the queue owns each
// physical register's wakeup time, and a waiting entry with a source whose
// time is still unknown (its producer has not issued, or a miss
// notification revoked the time) is parked on that register until a
// producer announces a time. Select scans only the armed entries — those
// whose sources all have known times.
package iq

import (
	"fmt"
	"math"

	"loosesim/internal/regfile"
	"loosesim/internal/uop"
)

// Unknown is the wakeup time of a register whose producer has not
// announced one: later than any cycle the simulation reaches.
const Unknown int64 = 1 << 62

// Config sizes the queue.
type Config struct {
	// Entries is the total queue capacity (128 in the base machine).
	Entries int
	// Clusters is the number of functional-unit clusters instructions are
	// slotted across (8 in the base machine).
	Clusters int
	// Regs is the number of physical registers whose wakeup times the
	// queue tracks.
	Regs int
}

// Queue is the clustered instruction queue. Entries live in a fixed table
// of slots. Each Waiting entry is in exactly one of two places: parked on
// the list of a source register whose wakeup time is unknown, or on its
// cluster's armed list, which select scans — an armed entry's sources all
// have known times. The queue owns every state change of a held entry
// into or out of Waiting (Issue, Revert) and out of the retained
// population (Retire, Remove), and every wakeup-time write (SetReady),
// which keeps the two places and the retained count exact without
// rescanning.
type Queue struct {
	cfg      Config
	slots    []slot // the entry table; a held entry occupies slots[u.IQSlot]
	vacant   *slot  // unoccupied slots, linked through next
	clusters []cluster
	regs     []reg // per physical register, then noSrc
	noSrc    *reg  // stands in for an absent source: always passed
	intake   reg   // new and reverted entries, parked here only until filed
	count    int
	retained int    // entries in StateIssued or StateDone
	stamp    uint64 // next insertion stamp (uop.IQStamp)
}

// slot is one queue entry. While the entry is parked, prev and next link
// it into a circular list through its register's sentinel slot; while the
// slot is vacant, next links the vacant list. Otherwise both are nil.
type slot struct {
	u          *uop.UOp
	cl         *cluster // the cluster u is slotted to
	prev, next *slot
	id         int32
}

// push links s into the list whose sentinel is h.
func (h *slot) push(s *slot) {
	s.prev, s.next = h, h.next
	h.next.prev = s
	h.next = s
}

// unlink takes the parked s off its list.
func (s *slot) unlink() {
	s.prev.next, s.next.prev = s.next, s.prev
	s.prev, s.next = nil, nil
}

// reg is one physical register's wakeup state: its wakeup time, the
// number of armed sources that read it, and the sentinel of the list of
// entries parked on it.
type reg struct {
	at      int64
	readers int
	park    slot
}

// cluster is one functional-unit cluster's share of the queue.
type cluster struct {
	held  int     // entries slotted here
	armed []armed // armed entries in insertion order
}

// armed is the packed copy of what select reads of an armed entry: its
// recovery gate, its insertion stamp and its sources (noSrc past NumSrc).
type armed struct {
	minIssue int64
	stamp    uint64
	src      [2]*reg
	s        *slot
}

// New returns an empty queue whose registers all have wakeup time 0.
func New(cfg Config) *Queue {
	if cfg.Entries < 1 || cfg.Clusters < 1 || cfg.Regs < 0 {
		panic(fmt.Sprintf("iq: bad config %+v", cfg))
	}
	q := &Queue{
		cfg:      cfg,
		slots:    make([]slot, cfg.Entries),
		clusters: make([]cluster, cfg.Clusters),
		regs:     make([]reg, cfg.Regs+1),
	}
	for i := len(q.slots) - 1; i >= 0; i-- {
		s := &q.slots[i]
		s.id, s.next, q.vacant = int32(i), q.vacant, s
	}
	// Slotting is least-loaded but nothing caps one cluster short of the
	// whole queue, so each armed list is provisioned to the full capacity
	// — arming must never grow on the per-cycle path.
	for c := range q.clusters {
		q.clusters[c].armed = make([]armed, 0, cfg.Entries)
	}
	for p := range q.regs {
		h := &q.regs[p].park
		h.prev, h.next = h, h
	}
	q.intake.park.prev, q.intake.park.next = &q.intake.park, &q.intake.park
	q.noSrc = &q.regs[cfg.Regs]
	q.noSrc.at = math.MinInt64
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
func (q *Queue) ClusterLen(c int) int { return q.clusters[c].held }

// LeastLoadedCluster returns the cluster with the fewest queue entries,
// breaking ties toward lower indices. This is the decode-time slotting
// policy: it approximates the uniform distribution the paper assumes.
func (q *Queue) LeastLoadedCluster() int {
	best, bestLen := 0, q.cfg.Entries+1
	for c := range q.clusters {
		if n := q.clusters[c].held; n < bestLen {
			best, bestLen = c, n
		}
	}
	return best
}

// SetReady records p's wakeup time: the cycle its value is believed
// available at the functional units, or Unknown. A known time wakes every
// entry parked on p: each is armed, or parked again on its next unknown
// source. Unknown parks every armed entry that reads p.
func (q *Queue) SetReady(p regfile.PReg, at int64) {
	r := &q.regs[p]
	r.at = at
	q.settle(r, nil)
}

// settle files the entries one event decides: either the Waiting entry u
// that Insert or Revert has just (re)admitted, or, for u nil, the entries
// register r's new wakeup time decides. If r's time is Unknown, every
// armed entry that reads r is parked on r. Otherwise every entry parked on
// r is filed where select finds it when it may pass: parked on its first
// source whose time is unknown, or armed at the position its insertion
// stamp fixes — after every older armed entry of its cluster, before every
// younger one. u is filed the same way, from the intake list, whose time
// is always known. One routine serves all three so that SetReady and
// Revert stay small enough to inline at the machine's call sites.
func (q *Queue) settle(r *reg, u *uop.UOp) {
	if u != nil {
		r = &q.intake
		r.park.push(&q.slots[u.IQSlot])
	}
	if r.at == Unknown {
		clusters := q.clusters
		for c := range clusters {
			if r.readers == 0 {
				break
			}
			cl := &clusters[c]
			kept := cl.armed[:0]
			for _, e := range cl.armed {
				if e.src[0] != r && e.src[1] != r {
					// simlint:prealloc kept reuses the armed list's own storage
					kept = append(kept, e)
					continue
				}
				e.src[0].readers--
				e.src[1].readers--
				r.park.push(e.s)
			}
			cl.armed = kept
		}
		return
	}
next:
	for h := &r.park; h.next != h; {
		s := h.next
		s.unlink()
		u := s.u
		e := armed{minIssue: u.MinIssueCycle, stamp: u.IQStamp, src: [2]*reg{q.noSrc, q.noSrc}, s: s}
		for i, p := range u.Src {
			if i == u.NumSrc {
				break
			}
			src := &q.regs[p]
			if src.at == Unknown {
				src.park.push(s)
				continue next
			}
			e.src[i] = src
		}
		e.src[0].readers++
		e.src[1].readers++
		cl := s.cl
		// simlint:prealloc armed lists sized to Entries at construction
		list := append(cl.armed, e)
		for i := len(list) - 1; i > 0 && list[i-1].stamp > e.stamp; i-- {
			list[i], list[i-1] = list[i-1], e
		}
		cl.armed = list
	}
}

// Insert places u (already slotted to u.Cluster) into the queue. It returns
// false if the queue is full. u's state must be one an entry can hold:
// Waiting, Issued, Done or Retired.
func (q *Queue) Insert(u *uop.UOp) bool {
	if q.Full() {
		return false
	}
	c := u.Cluster
	if uint(c) >= uint(len(q.clusters)) || u.InIQ ||
		u.State == uop.StateDecode || u.State == uop.StateSquashed {
		panic(fmt.Sprintf("iq: uop %v cannot take an entry (InIQ %v)", u, u.InIQ))
	}
	cl := &q.clusters[c]
	s := q.vacant
	q.vacant, s.next = s.next, nil
	s.u, s.cl = u, cl
	q.count++
	cl.held++
	u.InIQ = true
	u.IQSlot = s.id
	u.IQStamp = q.stamp
	q.stamp++
	if u.State == uop.StateWaiting {
		q.settle(nil, u)
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
	s := &q.slots[u.IQSlot]
	if s.u != u {
		panic(fmt.Sprintf("iq: %v marked InIQ but not found", u))
	}
	cl := s.cl
	switch {
	case s.prev != nil:
		s.unlink()
	case u.State == uop.StateWaiting:
		cl.disarm(u.IQStamp)
	case retains(u.State):
		q.retained--
	}
	s.u, s.cl = nil, nil
	s.next, q.vacant = q.vacant, s
	q.count--
	cl.held--
	u.InIQ = false
}

// disarm deletes the armed entry with the given stamp.
func (cl *cluster) disarm(stamp uint64) {
	list := cl.armed
	for i := range list {
		if e := &list[i]; e.stamp == stamp {
			e.src[0].readers--
			e.src[1].readers--
			cl.armed = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// Issue moves an entry select returned from Waiting to Issued. The entry
// stays held, now counted as retained, until Remove reclaims it.
func (q *Queue) Issue(u *uop.UOp) {
	q.clusters[u.Cluster].disarm(u.IQStamp)
	u.State = uop.StateIssued
	q.retained++
}

// Revert is loose-loop recovery at the queue: an issued instruction (the
// only kind the execution stage sends back) returns to Waiting, and may
// not be reselected before the recovery signal arrives at minIssue. While
// it holds its entry it is filed again under its original insertion
// stamp, so select sees it exactly where it always was.
func (q *Queue) Revert(u *uop.UOp, minIssue int64) {
	u.State = uop.StateWaiting
	u.MinIssueCycle = minIssue
	if u.InIQ {
		q.retained--
		q.settle(nil, u)
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

// Wakeup is the timing view select evaluates: the issue stage fills it
// once per cycle.
type Wakeup struct {
	// Cycle is the current cycle. An entry whose MinIssueCycle is later is
	// still waiting for its recovery signal.
	Cycle int64
	// Horizon is the latest wakeup time that counts as ready: the cycle an
	// instruction selected now would reach the functional units.
	Horizon int64
}

// SelectOldestReady models the per-cluster select logic (one issue per
// cluster per cycle): it returns the oldest waiting instruction in cluster
// c, at or after position from of the cluster's armed list, whose recovery
// gate has passed and whose sources are believed ready by w.Horizon, or
// nil. The second result is the position after the returned entry, from
// which a caller that rejects it on a further condition resumes the
// search. Parked entries are never visited: their unknown source fails the
// predicate.
func (q *Queue) SelectOldestReady(c, from int, w *Wakeup) (*uop.UOp, int) {
	list := q.clusters[c].armed
	for i := uint(from); i < uint(len(list)); i++ {
		if e := &list[i]; w.Cycle >= e.minIssue && e.src[0].at <= w.Horizon && e.src[1].at <= w.Horizon {
			return e.s.u, int(i) + 1
		}
	}
	return nil, len(list)
}

// Retained returns the number of entries held by instructions that have
// issued (or completed) but whose entries have not yet been reclaimed —
// the IQ-pressure population.
func (q *Queue) Retained() int { return q.retained }
