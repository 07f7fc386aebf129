package pipeline

import (
	"loosesim/internal/uop"
)

// Memory dependence loop (Figure 2's load/store reorder trap loop).
//
// Stores learn their addresses at execute. A load that issues past an older
// store whose address is still unknown is speculating that they do not
// alias; if the store later resolves to the same granule, the load read
// stale data and the machine takes a memory-order trap: recovery at the
// fetch stage (flush from the load, replay), exactly the 21264's
// initiation-at-issue / recovery-at-fetch loop the paper's Figure 2 shows.
// The store-wait predictor (bpred.StoreWait) turns repeat offenders into
// waiting loads.

// granule returns the aliasing granule of an address (8 bytes).
func granule(addr uint64) uint64 { return addr >> 3 }

// noStore marks "no unexecuted older store" for minUnexecStore.
const noStore = ^uint64(0)

// refreshMemDep recomputes, once per cycle per thread, the sequence number
// of the oldest store whose address is still unknown; the issue stage's
// load gating compares against it.
func (m *Machine) refreshMemDep() {
	if m.cfg.MemDep == MemDepBlind {
		return // no gating: nothing to refresh
	}
	for _, t := range m.threads {
		t.minUnexecStore = noStore
		for _, s := range t.memStores {
			if s.ExecCycle == uop.NoCycle {
				t.minUnexecStore = s.Seq
				break
			}
		}
	}
}

// loadMustWait implements the issue-stage gate for the configured policy:
// a correct-path load with an older store whose address is still unknown
// waits always under MemDepConservative, and under MemDepStoreWait when
// its store-wait bit is set.
func (m *Machine) loadMustWait(u *uop.UOp) bool {
	if u.WrongPath || !u.IsLoad() || m.cfg.MemDep == MemDepBlind {
		return false
	}
	if u.Seq <= m.threads[u.Thread].minUnexecStore {
		return false
	}
	return m.cfg.MemDep == MemDepConservative || m.swPred.ShouldWait(u.Inst.PC)
}

// forwardingStore returns the youngest older store with a resolved address
// on the load's granule, or nil. Such a load reads its data from the store
// queue instead of the cache.
func (m *Machine) forwardingStore(u *uop.UOp) *uop.UOp {
	t := m.threads[u.Thread]
	g := granule(u.Inst.Addr)
	for i := len(t.memStores) - 1; i >= 0; i-- {
		s := t.memStores[i]
		if s.Seq >= u.Seq {
			continue
		}
		if s.ExecCycle != uop.NoCycle && granule(s.Inst.Addr) == g {
			return s
		}
	}
	return nil
}

// storeResolved runs when a store's address becomes known at execute: any
// younger load on the same granule that already executed read stale data —
// a memory-order violation. The oldest violator traps: flush from the load,
// replay from fetch, and train the store-wait predictor.
func (m *Machine) storeResolved(u *uop.UOp) {
	t := m.threads[u.Thread]
	g := granule(u.Inst.Addr)
	var victim *uop.UOp
	for _, ld := range t.memLoads {
		if ld.Seq > u.Seq && granule(ld.Inst.Addr) == g {
			if victim == nil || ld.Seq < victim.Seq {
				victim = ld
			}
		}
	}
	if victim == nil {
		return
	}
	m.noteMemOrderTrap(victim)
	m.swPred.Train(victim.Inst.PC)
	m.squashYounger(t, victim.Seq-1) // inclusive of the load: it refetches
	if t.wpBranch != nil && t.wpBranch.State == uop.StateSquashed {
		t.wrongPath = false
		t.wpBranch = nil
	}
	redirect := m.cycle + int64(m.cfg.FeedbackDelay)
	if redirect > t.fetchBlockedUntil {
		t.fetchBlockedUntil = redirect
	}
}

// trackLoad records an executed load for violation checks until it retires.
func (t *threadState) trackLoad(u *uop.UOp) {
	// simlint:prealloc sized to MaxInFlight at construction
	t.memLoads = append(t.memLoads, u)
}

// trackStore records a renamed store until it retires.
func (t *threadState) trackStore(u *uop.UOp) {
	// simlint:prealloc sized to MaxInFlight at construction
	t.memStores = append(t.memStores, u)
}

// untrackRetired drops a retiring memory instruction from the tracking
// lists. Stores retire in program order, so the store is the list head;
// loads are appended in execute order and removed by search.
func (t *threadState) untrackRetired(u *uop.UOp) {
	if u.WrongPath {
		return
	}
	switch {
	case u.Inst.Op.IsMem() && u.IsLoad():
		for i, ld := range t.memLoads {
			if ld == u {
				t.memLoads = append(t.memLoads[:i], t.memLoads[i+1:]...)
				return
			}
		}
	case u.Inst.Op.IsMem():
		if s := t.memStores; len(s) > 0 && s[0] == u {
			// Copy down rather than re-slice: s[1:] would shed the
			// head's capacity, and trackStore's append would then
			// reallocate.
			copy(s, s[1:])
			s[len(s)-1] = nil
			t.memStores = s[:len(s)-1]
			return
		}
		// A store must retire in order; reaching here is a tracking bug.
		panic("pipeline: retiring store is not the oldest tracked store")
	}
}

// untrackSquashed drops squashed instructions (Seq > seq) from the tracking
// lists.
func (t *threadState) untrackSquashed(seq uint64) {
	for len(t.memStores) > 0 && t.memStores[len(t.memStores)-1].Seq > seq {
		t.memStores = t.memStores[:len(t.memStores)-1]
	}
	kept := t.memLoads[:0]
	for _, ld := range t.memLoads {
		if ld.Seq <= seq {
			kept = append(kept, ld)
		}
	}
	t.memLoads = kept
}
