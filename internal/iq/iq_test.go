package iq

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"loosesim/internal/isa"
	"loosesim/internal/regfile"
	"loosesim/internal/uop"
)

func mk(seq uint64, cluster int) *uop.UOp {
	u := uop.New(isa.Inst{Op: isa.IntALU}, 0, seq, 0)
	u.Cluster = cluster
	u.State = uop.StateWaiting
	return u
}

// allReady deems every source-free entry ready at cycle 0.
var allReady = &Wakeup{}

func TestInsertRemove(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 2})
	u := mk(1, 0)
	if !q.Insert(u) {
		t.Fatal("insert into empty queue failed")
	}
	if !u.InIQ || q.Len() != 1 || q.ClusterLen(0) != 1 {
		t.Error("bookkeeping after insert wrong")
	}
	q.Remove(u)
	if u.InIQ || q.Len() != 0 {
		t.Error("bookkeeping after remove wrong")
	}
	if got, _ := q.SelectOldestReady(0, 0, allReady); got != nil {
		t.Errorf("removed entry still selectable: %v", got)
	}
	q.Remove(u) // second remove is a no-op
	if q.Len() != 0 {
		t.Error("double remove must be a no-op")
	}
}

func TestFullRejects(t *testing.T) {
	q := New(Config{Entries: 2, Clusters: 1})
	q.Insert(mk(1, 0))
	q.Insert(mk(2, 0))
	if q.Insert(mk(3, 0)) {
		t.Error("full queue must reject")
	}
	if !q.Full() || q.Free() != 0 {
		t.Error("Full/Free inconsistent")
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 1})
	u := mk(1, 0)
	q.Insert(u)
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert must panic")
		}
	}()
	q.Insert(u)
}

func TestInsertUnholdableStatePanics(t *testing.T) {
	for _, s := range []uop.State{uop.StateDecode, uop.StateSquashed} {
		func() {
			q := New(Config{Entries: 4, Clusters: 1})
			u := mk(1, 0)
			u.State = s
			defer func() {
				if recover() == nil {
					t.Errorf("insert in state %v must panic", s)
				}
			}()
			q.Insert(u)
		}()
	}
}

func TestLeastLoadedCluster(t *testing.T) {
	q := New(Config{Entries: 16, Clusters: 4})
	if q.LeastLoadedCluster() != 0 {
		t.Error("empty queue must slot to cluster 0")
	}
	q.Insert(mk(1, 0))
	q.Insert(mk(2, 1))
	if got := q.LeastLoadedCluster(); got != 2 {
		t.Errorf("least loaded = %d, want 2", got)
	}
}

func TestSelectOldestReady(t *testing.T) {
	q := New(Config{Entries: 8, Clusters: 2})
	a, b, c := mk(10, 0), mk(11, 0), mk(12, 1)
	q.Insert(a)
	q.Insert(b)
	q.Insert(c)

	if got, _ := q.SelectOldestReady(0, 0, allReady); got != a {
		t.Errorf("cluster 0 select = %v, want oldest %v", got, a)
	}
	if got, _ := q.SelectOldestReady(1, 0, allReady); got != c {
		t.Errorf("cluster 1 select = %v, want %v", got, c)
	}
	// Issued instructions are not selectable even while retained.
	q.Issue(a)
	if got, _ := q.SelectOldestReady(0, 0, allReady); got != b {
		t.Errorf("select after issue = %v, want %v", got, b)
	}
	if q.Retained() != 1 {
		t.Errorf("retained after issue = %d, want 1", q.Retained())
	}
}

func TestSelectReadinessGates(t *testing.T) {
	q := New(Config{Entries: 8, Clusters: 1, Regs: 3})
	for p, at := range []int64{8, 7, 3} {
		q.SetReady(regfile.PReg(p), at)
	}
	a, b, c := mk(1, 0), mk(2, 0), mk(3, 0)
	a.Src[0], a.NumSrc = 0, 1
	b.MinIssueCycle = 10
	c.Src[0], c.Src[1], c.NumSrc = 1, 2, 2
	for _, u := range []*uop.UOp{a, b, c} {
		q.Insert(u)
	}
	w := &Wakeup{Cycle: 5, Horizon: 7}
	// a's source wakes after the horizon, b's recovery gate is closed; c
	// is the oldest ready entry.
	if got, next := q.SelectOldestReady(0, 0, w); got != c || next != 3 {
		t.Errorf("select = %v,%d, want %v,3", got, next, c)
	}
	w.Cycle, w.Horizon = 10, 12
	got, next := q.SelectOldestReady(0, 0, w)
	if got != a || next != 1 {
		t.Fatalf("select = %v,%d, want %v,1", got, next, a)
	}
	// Resuming past a rejected candidate finds the next ready one.
	if got, _ := q.SelectOldestReady(0, next, w); got != b {
		t.Errorf("resumed select = %v, want %v", got, b)
	}
	if got, next := q.SelectOldestReady(0, 3, w); got != nil || next != 3 {
		t.Errorf("select past the end = %v,%d, want nil,3", got, next)
	}
}

// TestParkedUntilProducerAnnounces: an entry whose source time is unknown
// is parked, not scanned; the producer's SetReady arms it, at its
// insertion position among older and younger armed entries.
func TestParkedUntilProducerAnnounces(t *testing.T) {
	q := New(Config{Entries: 8, Clusters: 1, Regs: 2})
	q.SetReady(0, Unknown)
	a, b, c := mk(1, 0), mk(2, 0), mk(3, 0)
	b.Src[0], b.Src[1], b.NumSrc = 0, 0, 2 // both sources on one register
	for _, u := range []*uop.UOp{a, b, c} {
		q.Insert(u)
	}
	if n := len(q.clusters[0].armed); n != 2 {
		t.Fatalf("armed = %d, want 2 (b parked)", n)
	}
	q.Issue(a)
	if got, _ := q.SelectOldestReady(0, 0, allReady); got != c {
		t.Fatalf("select = %v, want %v (b parked)", got, c)
	}
	q.SetReady(0, 0)
	if got, _ := q.SelectOldestReady(0, 0, allReady); got != b {
		t.Fatalf("select after wakeup = %v, want %v", got, b)
	}
	// A revoked time parks the armed consumer at once.
	q.SetReady(0, Unknown)
	if n := len(q.clusters[0].armed); n != 1 {
		t.Errorf("armed after revoke = %d, want 1 (b parked again)", n)
	}
	if got, _ := q.SelectOldestReady(0, 0, allReady); got != c {
		t.Fatalf("select after revoke = %v, want %v", got, c)
	}
}

func TestReissueSelectableAgain(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 1})
	u := mk(5, 0)
	q.Insert(u)
	q.Issue(u)
	if got, _ := q.SelectOldestReady(0, 0, allReady); got != nil {
		t.Fatal("issued uop must not reselect")
	}
	// Load-miss recovery: the uop reverts to waiting while still holding
	// its entry, and becomes selectable again once its gate passes.
	q.Revert(u, 3)
	if u.State != uop.StateWaiting || u.MinIssueCycle != 3 {
		t.Fatalf("after revert: state %v gate %d", u.State, u.MinIssueCycle)
	}
	if got, _ := q.SelectOldestReady(0, 0, allReady); got != nil {
		t.Error("reverted uop selectable before its recovery gate")
	}
	if got, _ := q.SelectOldestReady(0, 0, &Wakeup{Cycle: 3}); got != u {
		t.Error("reissued uop must be selectable")
	}
}

func TestRevertRestoresInsertionPosition(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 1})
	// Insertion order, not Seq, is age order for select: SMT threads
	// rename out of Seq order.
	a, b, c := mk(30, 0), mk(10, 0), mk(20, 0)
	for _, u := range []*uop.UOp{a, b, c} {
		q.Insert(u)
	}
	q.Issue(a)
	q.Issue(c)
	if got, _ := q.SelectOldestReady(0, 0, allReady); got != b {
		t.Fatalf("select = %v, want %v", got, b)
	}
	// Load-miss recovery: the uop reverts to waiting while still holding
	// its entry, and becomes selectable again at its original position.
	q.Revert(c, 0)
	q.Revert(a, 0)
	if q.Retained() != 0 {
		t.Errorf("retained after reverts = %d, want 0", q.Retained())
	}
	for _, want := range []*uop.UOp{a, b, c} {
		got, _ := q.SelectOldestReady(0, 0, allReady)
		if got != want {
			t.Fatalf("select = %v, want %v", got, want)
		}
		q.Issue(got)
	}
}

func TestRetireKeepsEntryButNotRetained(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 1})
	u := mk(1, 0)
	q.Insert(u)
	q.Issue(u)
	u.State = uop.StateDone
	if q.Retained() != 1 {
		t.Fatalf("retained = %d, want 1", q.Retained())
	}
	q.Retire(u)
	if u.State != uop.StateRetired || !u.InIQ || q.Len() != 1 || q.Retained() != 0 {
		t.Errorf("after retire: state %v inIQ %v len %d retained %d", u.State, u.InIQ, q.Len(), q.Retained())
	}
	q.Remove(u)
	if q.Len() != 0 || q.Retained() != 0 {
		t.Errorf("after remove: len %d retained %d", q.Len(), q.Retained())
	}
}

func TestRetainedCount(t *testing.T) {
	q := New(Config{Entries: 8, Clusters: 2})
	a, b := mk(1, 0), mk(2, 1)
	q.Insert(a)
	q.Insert(b)
	q.Issue(a)
	if q.Retained() != 1 {
		t.Errorf("retained = %d, want 1", q.Retained())
	}
	q.Issue(b)
	b.State = uop.StateDone
	if q.Retained() != 2 {
		t.Errorf("retained = %d, want 2", q.Retained())
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config must panic")
		}
	}()
	New(Config{Entries: 0, Clusters: 1})
}

func TestBadClusterPanics(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 2})
	u := mk(1, 5)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range cluster must panic")
		}
	}()
	q.Insert(u)
}

// Property: after any insert/remove sequence, Len equals the sum of cluster
// lengths, never exceeds capacity, and the cluster entry lists hold exactly
// the live entries in insertion order.
func TestOccupancyInvariantProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(Config{Entries: 8, Clusters: 3})
		var live []*uop.UOp
		seq := uint64(0)
		for i := 0; i < int(steps); i++ {
			if rng.Intn(2) == 0 {
				seq++
				u := mk(seq, rng.Intn(3))
				if q.Insert(u) {
					live = append(live, u)
				}
			} else if len(live) > 0 {
				k := rng.Intn(len(live))
				q.Remove(live[k])
				live = append(live[:k], live[k+1:]...)
			}
			sum, listed := 0, 0
			for c := 0; c < 3; c++ {
				sum += q.ClusterLen(c)
				entries := q.ClusterEntries(c)
				listed += len(entries)
				for k := 1; k < len(entries); k++ {
					if entries[k-1].Seq >= entries[k].Seq {
						return false
					}
				}
			}
			if q.Len() != sum || q.Len() != len(live) || q.Len() > 8 || listed != q.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: SelectOldestReady always returns the earliest-inserted waiting
// entry, whatever the Seq order of the inserts.
func TestSelectOldestProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(Config{Entries: 32, Clusters: 1})
		var waiting []*uop.UOp
		for i := 0; i < int(n%20); i++ {
			u := mk(rng.Uint64(), 0)
			q.Insert(u)
			if rng.Intn(4) == 0 {
				q.Issue(u)
			} else {
				waiting = append(waiting, u)
			}
		}
		got, _ := q.SelectOldestReady(0, 0, allReady)
		if len(waiting) == 0 {
			return got == nil
		}
		return got == waiting[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refQueue is the reference model for the differential test: a linear-scan
// queue that polls wakeup times. Each cluster's entries sit in insertion
// order; select walks them all and takes the first Waiting entry the
// predicate accepts, against the reference's own copy of every register's
// wakeup time, and the retained count walks them all too.
type refQueue struct {
	lists   [][]*uop.UOp
	readyAt []int64
}

func (r *refQueue) insert(u *uop.UOp) { r.lists[u.Cluster] = append(r.lists[u.Cluster], u) }

func (r *refQueue) remove(u *uop.UOp) {
	l := r.lists[u.Cluster]
	for i, e := range l {
		if e == u {
			r.lists[u.Cluster] = append(l[:i], l[i+1:]...)
			return
		}
	}
}

// ready is the wakeup predicate evaluated directly.
func (r *refQueue) ready(u *uop.UOp, w *Wakeup) bool {
	if w.Cycle < u.MinIssueCycle {
		return false
	}
	for i := 0; i < u.NumSrc; i++ {
		if r.readyAt[u.Src[i]] > w.Horizon {
			return false
		}
	}
	return true
}

// selectNth returns the (skip+1)-th Waiting entry of cluster c that the
// predicate accepts — what select yields after the caller rejected the
// first skip.
func (r *refQueue) selectNth(c, skip int, w *Wakeup) *uop.UOp {
	for _, u := range r.lists[c] {
		if u.State == uop.StateWaiting && r.ready(u, w) {
			if skip == 0 {
				return u
			}
			skip--
		}
	}
	return nil
}

func (r *refQueue) retained() int {
	n := 0
	for _, l := range r.lists {
		for _, u := range l {
			if u.State == uop.StateIssued || u.State == uop.StateDone {
				n++
			}
		}
	}
	return n
}

// checkFiling verifies the wakeup invariants: every parked entry is a held
// Waiting entry, sits on one of its own sources whose time is unknown, and
// is linked consistently; every armed entry is a held Waiting entry of its
// cluster whose packed copy matches it, in strictly increasing stamp
// order, with every source's time known; each Waiting entry is filed
// exactly once, so parked + armed = waiting; each register's reader
// count is the number of armed sources that read it; and no entry is
// left on the intake list.
func checkFiling(q *Queue) error {
	filed := make(map[*uop.UOp]bool)
	file := func(u *uop.UOp, where string) error {
		if u == nil || !u.InIQ || u.State != uop.StateWaiting || q.slots[u.IQSlot].u != u {
			return fmt.Errorf("%s: %v is not a held waiting entry", where, u)
		}
		if q.slots[u.IQSlot].cl != &q.clusters[u.Cluster] {
			return fmt.Errorf("%s: %v slot names the wrong cluster", where, u)
		}
		if filed[u] {
			return fmt.Errorf("%s: %v filed twice", where, u)
		}
		filed[u] = true
		return nil
	}
	for p := 0; p < q.cfg.Regs; p++ {
		r := &q.regs[p]
		h := &r.park
		for s := h.next; s != h; s = s.next {
			where := fmt.Sprintf("parked on p%d", p)
			if err := file(s.u, where); err != nil {
				return err
			}
			if s.next.prev != s || s.prev.next != s {
				return fmt.Errorf("%s: %v linked inconsistently", where, s.u)
			}
			if r.at != Unknown {
				return fmt.Errorf("%s: %v parked on a known time %d", where, s.u, r.at)
			}
			own := false
			for i := 0; i < s.u.NumSrc; i++ {
				own = own || s.u.Src[i] == regfile.PReg(p)
			}
			if !own {
				return fmt.Errorf("%s: %v does not read p%d", where, s.u, p)
			}
		}
	}
	if h := &q.intake.park; h.next != h || h.prev != h {
		return fmt.Errorf("intake list not empty")
	}
	readers := make(map[*reg]int)
	for c := range q.clusters {
		list := q.clusters[c].armed
		for k, e := range list {
			u := e.s.u
			where := fmt.Sprintf("armed in cluster %d at %d", c, k)
			if err := file(u, where); err != nil {
				return err
			}
			if u.Cluster != c || e.s.prev != nil || e.stamp != u.IQStamp || e.minIssue != u.MinIssueCycle {
				return fmt.Errorf("%s: packed copy of %v stale", where, u)
			}
			if k > 0 && list[k-1].stamp >= e.stamp {
				return fmt.Errorf("%s: %v out of stamp order", where, u)
			}
			for i, r := range e.src {
				readers[r]++
				if i >= u.NumSrc {
					if r != q.noSrc {
						return fmt.Errorf("%s: %v packs absent source %d as a register", where, u, i)
					}
					continue
				}
				p := u.Src[i]
				if r != &q.regs[p] {
					return fmt.Errorf("%s: %v packed source %d is not p%d", where, u, i, p)
				}
				if r.at == Unknown {
					return fmt.Errorf("%s: %v armed on p%d, whose time is unknown", where, u, p)
				}
			}
		}
	}
	for p := range q.regs {
		if r := &q.regs[p]; r.readers != readers[r] {
			return fmt.Errorf("p%d: %d readers counted, %d armed", p, r.readers, readers[r])
		}
	}
	waiting := 0
	for i := range q.slots {
		if u := q.slots[i].u; u != nil && u.State == uop.StateWaiting {
			waiting++
		}
	}
	if waiting != len(filed) {
		return fmt.Errorf("parked + armed = %d, waiting = %d", len(filed), waiting)
	}
	return nil
}

// rebuild builds a fresh queue from q as a snapshot restore does: every
// wakeup time first, then every cluster's entries in list order, states
// intact, so that the inserts park against the restored times.
func rebuild(q *Queue) *Queue {
	r := New(q.Config())
	for p, at := range q.ReadyTimes() {
		r.SetReady(regfile.PReg(p), at)
	}
	for c := 0; c < q.Config().Clusters; c++ {
		for _, u := range q.ClusterEntries(c) {
			u.InIQ = false
			r.Insert(u)
		}
	}
	return r
}

// Property (differential): under random insert / select-and-issue /
// revert / complete / retire / remove / wakeup-write / restore sequences —
// Seq numbers drawn out of insertion order as SMT renaming produces,
// sources sometimes both on one register, wakeup times flipping between
// known and unknown only through SetReady — select (from the start and
// resumed past rejected candidates) and Retained match the linear-scan
// reference model, and the parking invariants hold after every step.
func TestDifferentialAgainstLinearScan(t *testing.T) {
	const clusters, entries, pregs = 3, 12, 6
	cfg := Config{Entries: entries, Clusters: clusters, Regs: pregs}
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(cfg)
		ref := &refQueue{lists: make([][]*uop.UOp, clusters), readyAt: make([]int64, pregs)}
		var held []*uop.UOp
		pick := func(states ...uop.State) *uop.UOp {
			var cands []*uop.UOp
			for _, u := range held {
				for _, s := range states {
					if u.State == s {
						cands = append(cands, u)
					}
				}
			}
			if len(cands) == 0 {
				return nil
			}
			return cands[rng.Intn(len(cands))]
		}
		forget := func(u *uop.UOp) {
			for i, e := range held {
				if e == u {
					held = append(held[:i], held[i+1:]...)
					return
				}
			}
		}
		for i := 0; i < int(steps)+40; i++ {
			w := &Wakeup{Cycle: int64(rng.Intn(8))}
			w.Horizon = w.Cycle + int64(rng.Intn(4))
			switch op := rng.Intn(10); op {
			case 0, 1: // insert, Seq deliberately unordered
				u := mk(rng.Uint64()%1000, rng.Intn(clusters))
				u.NumSrc = rng.Intn(3)
				for s := 0; s < u.NumSrc; s++ {
					u.Src[s] = regfile.PReg(rng.Intn(pregs))
				}
				if u.NumSrc == 2 && rng.Intn(4) == 0 {
					u.Src[1] = u.Src[0]
				}
				u.MinIssueCycle = int64(rng.Intn(8))
				if q.Insert(u) {
					ref.insert(u)
					held = append(held, u)
				}
			case 2, 3: // select and issue, sometimes passing over candidates
				c := rng.Intn(clusters)
				skip := rng.Intn(2)
				got, next := q.SelectOldestReady(c, 0, w)
				for k := 0; k < skip && got != nil; k++ {
					got, next = q.SelectOldestReady(c, next, w)
				}
				if want := ref.selectNth(c, skip, w); got != want {
					t.Logf("step %d: select(c=%d, skip=%d) = %v, reference %v", i, c, skip, got, want)
					return false
				}
				if got != nil {
					q.Issue(got)
				}
			case 4: // revert (loose-loop recovery)
				if u := pick(uop.StateIssued); u != nil {
					q.Revert(u, int64(rng.Intn(8)))
				}
			case 5: // complete
				if u := pick(uop.StateIssued); u != nil {
					u.State = uop.StateDone
				}
			case 6: // retire, entry still held
				if u := pick(uop.StateDone); u != nil {
					q.Retire(u)
				}
			case 7: // remove (IQ free or squash)
				if u := pick(uop.StateWaiting, uop.StateIssued, uop.StateDone, uop.StateRetired); u != nil {
					q.Remove(u)
					ref.remove(u)
					forget(u)
				}
			case 8: // a wakeup-time write: revoke, or announce a time
				p := regfile.PReg(rng.Intn(pregs))
				at := Unknown
				if rng.Intn(3) > 0 {
					at = int64(rng.Intn(12))
				}
				q.SetReady(p, at)
				ref.readyAt[p] = at
			default: // restore: rebuild from the wakeup times and entry lists
				q = rebuild(q)
			}
			if q.Retained() != ref.retained() || q.Len() != len(held) {
				t.Logf("step %d: retained %d/%d len %d/%d", i, q.Retained(), ref.retained(), q.Len(), len(held))
				return false
			}
			if err := checkFiling(q); err != nil {
				t.Logf("step %d: %v", i, err)
				return false
			}
		}
		// Drain: select resumed past every candidate matches the
		// reference's whole ready sequence, on the live queue and then on
		// a rebuilt one.
		w := &Wakeup{Cycle: int64(rng.Intn(8)), Horizon: 8}
		drain := func(q *Queue) bool {
			for c := 0; c < clusters; c++ {
				got, next := q.SelectOldestReady(c, 0, w)
				for k := 0; ; k++ {
					if want := ref.selectNth(c, k, w); got != want {
						t.Logf("drain: select(c=%d, skip=%d) = %v, reference %v", c, k, got, want)
						return false
					}
					if got == nil {
						break
					}
					got, next = q.SelectOldestReady(c, next, w)
				}
			}
			return true
		}
		return drain(q) && drain(rebuild(q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
