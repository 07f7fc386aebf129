package iq

import (
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
	if q.FullStalls() != 1 {
		t.Errorf("fullStalls = %d, want 1", q.FullStalls())
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
	q := New(Config{Entries: 8, Clusters: 1})
	a, b, c := mk(1, 0), mk(2, 0), mk(3, 0)
	a.Src[0], a.NumSrc = 0, 1
	b.MinIssueCycle = 10
	c.Src[0], c.Src[1], c.NumSrc = 1, 2, 2
	for _, u := range []*uop.UOp{a, b, c} {
		q.Insert(u)
	}
	w := &Wakeup{Cycle: 5, Horizon: 7, ReadyAt: []int64{8, 7, 3}}
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

func TestReissueSelectableAgain(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 1})
	u := mk(5, 0)
	q.Insert(u)
	q.Issue(u)
	if got, _ := q.SelectOldestReady(0, 0, allReady); got != nil {
		t.Fatal("issued uop must not reselect")
	}
	// Load-miss recovery: the uop reverts to waiting while still holding
	// its entry, and becomes selectable again.
	q.Revert(u)
	if got, _ := q.SelectOldestReady(0, 0, allReady); got != u || u.State != uop.StateWaiting {
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
	q.Revert(c)
	q.Revert(a)
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

func TestRetainedAndSampling(t *testing.T) {
	q := New(Config{Entries: 8, Clusters: 2})
	a, b := mk(1, 0), mk(2, 1)
	q.Insert(a)
	q.Insert(b)
	q.Issue(a)
	if q.Retained() != 1 {
		t.Errorf("retained = %d, want 1", q.Retained())
	}
	q.Sample()
	q.Issue(b)
	b.State = uop.StateDone
	q.Sample()
	if got := q.MeanOccupancy(); got != 2 {
		t.Errorf("mean occupancy = %v, want 2", got)
	}
	if got := q.MeanRetained(); got != 1.5 {
		t.Errorf("mean retained = %v, want 1.5", got)
	}
}

func TestEmptyStats(t *testing.T) {
	q := New(Config{Entries: 2, Clusters: 1})
	if q.MeanOccupancy() != 0 || q.MeanRetained() != 0 {
		t.Error("unsampled means must be 0")
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
// lengths, never exceeds capacity, and ForEach visits exactly Len entries.
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
			sum := 0
			for c := 0; c < 3; c++ {
				sum += q.ClusterLen(c)
			}
			visits := 0
			q.ForEach(func(*uop.UOp) { visits++ })
			if q.Len() != sum || q.Len() != len(live) || q.Len() > 8 || visits != q.Len() {
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

// refQueue is the reference model for the differential test: the
// linear-scan queue the waiting lists replace. Each cluster's entries sit
// in insertion order; select walks them all and takes the first Waiting
// entry the predicate accepts, and the retained count walks them all too.
type refQueue struct{ lists [][]*uop.UOp }

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

// selectNth returns the (skip+1)-th Waiting entry of cluster c that ready
// accepts — what select yields after the caller rejected the first skip.
func (r *refQueue) selectNth(c, skip int, ready func(*uop.UOp) bool) *uop.UOp {
	for _, u := range r.lists[c] {
		if u.State == uop.StateWaiting && ready(u) {
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

// refReady is the wakeup predicate evaluated directly.
func refReady(w *Wakeup) func(*uop.UOp) bool {
	return func(u *uop.UOp) bool {
		if w.Cycle < u.MinIssueCycle {
			return false
		}
		for i := 0; i < u.NumSrc; i++ {
			if w.ReadyAt[u.Src[i]] > w.Horizon {
				return false
			}
		}
		return true
	}
}

// Property (differential): under random insert / issue / revert /
// complete / retire / remove sequences, with Seq numbers drawn out of
// insertion order as SMT renaming produces, select (from the start and
// resumed past rejected candidates) and Retained match the linear-scan
// reference model — and so does a queue rebuilt from the entry lists the
// way a snapshot restore rebuilds it.
func TestDifferentialAgainstLinearScan(t *testing.T) {
	const clusters, entries, pregs = 3, 12, 8
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(Config{Entries: entries, Clusters: clusters})
		ref := &refQueue{lists: make([][]*uop.UOp, clusters)}
		w := &Wakeup{ReadyAt: make([]int64, pregs)}
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
		for i := 0; i < int(steps)+20; i++ {
			w.Cycle = int64(rng.Intn(8))
			w.Horizon = w.Cycle + int64(rng.Intn(4))
			for p := range w.ReadyAt {
				w.ReadyAt[p] = int64(rng.Intn(12))
			}
			switch op := rng.Intn(7); op {
			case 0, 1: // insert, Seq deliberately unordered
				u := mk(rng.Uint64()%1000, rng.Intn(clusters))
				u.NumSrc = rng.Intn(3)
				for s := 0; s < u.NumSrc; s++ {
					u.Src[s] = regfile.PReg(rng.Intn(pregs))
				}
				u.MinIssueCycle = int64(rng.Intn(8))
				if q.Insert(u) {
					ref.insert(u)
					held = append(held, u)
				}
			case 2: // select and issue, sometimes passing over candidates
				c := rng.Intn(clusters)
				skip := rng.Intn(2)
				got, next := q.SelectOldestReady(c, 0, w)
				for k := 0; k < skip && got != nil; k++ {
					got, next = q.SelectOldestReady(c, next, w)
				}
				if want := ref.selectNth(c, skip, refReady(w)); got != want {
					t.Logf("step %d: select(c=%d, skip=%d) = %v, reference %v", i, c, skip, got, want)
					return false
				}
				if got != nil {
					q.Issue(got)
				}
			case 3: // revert (loose-loop recovery)
				if u := pick(uop.StateIssued); u != nil {
					u.MinIssueCycle = int64(rng.Intn(8))
					q.Revert(u)
				}
			case 4: // complete
				if u := pick(uop.StateIssued); u != nil {
					u.State = uop.StateDone
				}
			case 5: // retire, entry still held
				if u := pick(uop.StateDone); u != nil {
					q.Retire(u)
				}
			default: // remove (IQ free or squash)
				if u := pick(uop.StateWaiting, uop.StateIssued, uop.StateDone, uop.StateRetired); u != nil {
					q.Remove(u)
					ref.remove(u)
					forget(u)
				}
			}
			if q.Retained() != ref.retained() || q.Len() != len(held) {
				t.Logf("step %d: retained %d/%d len %d/%d", i, q.Retained(), ref.retained(), q.Len(), len(held))
				return false
			}
		}
		// Rebuild as a snapshot restore does: re-insert every cluster's
		// entries in list order, states intact.
		rebuilt := New(Config{Entries: entries, Clusters: clusters})
		for c := 0; c < clusters; c++ {
			for _, u := range q.ClusterEntries(c) {
				u.InIQ = false
				rebuilt.Insert(u)
			}
		}
		if rebuilt.Retained() != ref.retained() {
			return false
		}
		for c := 0; c < clusters; c++ {
			got, next := rebuilt.SelectOldestReady(c, 0, w)
			for k := 0; ; k++ {
				if got != ref.selectNth(c, k, refReady(w)) {
					return false
				}
				if got == nil {
					break
				}
				got, next = rebuilt.SelectOldestReady(c, next, w)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
