package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"loosesim/internal/isa"
	"loosesim/internal/regfile"
	"loosesim/internal/snap"
	"loosesim/internal/uop"
)

// Machine checkpoints. Snapshot serializes the complete mutable state of
// a machine — every in-flight uop, the per-thread front ends, the IQ,
// rename/forwarding/memory/predictor state, the event rings, and all
// statistics — into a versioned, sha256-sealed container whose meta
// section carries a digest of the run-invariant configuration. Restore
// rebuilds a machine from the same configuration and the container;
// running the restored machine is bit-identical to running the original
// through the same cycles (enforced by TestSnapshotResumeByteIdentity).
//
// The uop graph is serialized as a table: every live record — members of
// the per-thread windows plus the dead queue awaiting reclaim — gets an
// index, and every cross-reference (decode pipes, IQ entries, memory
// dependence lists, event-ring entries) is encoded as an index into that
// table. The set is complete by construction: fetch puts every record
// into its thread's window, and retire or squash moves it to the dead
// queue for ringCycles cycles, longer than any reference outlives it.
//
// Why ringCycles is long enough. Let H be the config's event horizon
// (Config.eventHorizon): no schedule site places an event more than H
// cycles after the cycle it runs in, and ringCycles > H. Take a record u
// that dies (retires or is squashed) in cycle d. Every holder of a
// *uop.UOp that lives across cycles lets go of u by cycle d+H:
//
//   - Event rings. Events for u are scheduled only while u lives: issue
//     picks it from the IQ, onExec needs it Issued, and onComplete needs it
//     unsquashed with the current issue's tag, which it holds only until
//     that completion, which comes before retire. So the last event for u
//     is scheduled by cycle d and fires by d+H.
//   - IQ entries. A squash removes u's entry in cycle d. A retired u keeps
//     its entry until the evIQFree of its last issue, an event like any
//     other, so by d+H.
//   - wpBranch. It names a live correct-path branch. resolveBranch clears
//     it when the branch completes, which is before it can retire, and
//     every squash that can kill it (TLB trap, load refetch, memory-order
//     trap) clears it in the same cycle.
//   - memStores and memLoads. untrackRetired and untrackSquashed drop u in
//     cycle d.
//   - Thread windows and decode pipes. Retire pops u and squash truncates
//     it in cycle d.
//
// reclaimDead runs at the start of a cycle, before processEvents, and
// hands u back to the pool no earlier than cycle d+ringCycles >= d+H+1,
// after its last reference fired. The queue itself is the only holder
// left, which is why the dead queue belongs to the live set.

const (
	snapMagic   = "LOOMACH"
	snapVersion = 3

	// noUop is the encoded id for a nil uop reference.
	noUop = ^uint32(0)

	// maxSnapUops bounds the live-uop table a decoder will accept.
	maxSnapUops = 1 << 20
	// maxSnapReplay bounds a thread's queued replay instructions.
	maxSnapReplay = 1 << 20
)

// ConfigDigest returns the hex sha256 identifying the machine a checkpoint
// belongs to: the JSON of a Config holding only cfg's Stream, Timing and
// Functional parts. A checkpoint taken under one Run restores under another
// (the sampler's measurement windows), while any difference in workload,
// seed, width, latency or memory geometry is rejected.
func ConfigDigest(cfg Config) (string, error) {
	cfg = Config{Stream: cfg.Stream, Timing: cfg.Timing, Functional: cfg.Functional}
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("pipeline: config digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Snapshot encodes the machine's complete state as a sealed checkpoint.
// It reads but never mutates the machine: snapshotting mid-run and
// continuing is exactly the uninterrupted run.
func (m *Machine) Snapshot() ([]byte, error) {
	digest, err := ConfigDigest(m.cfg)
	if err != nil {
		return nil, err
	}
	c := snap.Begin(snapMagic, snapVersion, []byte(digest), m.snapshotCap())
	m.sync(&c)
	return c.Seal(), nil
}

// snapshotCap is the payload size Snapshot allocates for. The memory
// hierarchy's encoding, most of a checkpoint, is counted exactly; the
// rest gets allowances that scale with the register file, the BTB and
// store-wait tables, the threads and the live uops. It is worked out
// afresh from the geometry, never remembered from an earlier snapshot,
// because Snapshot may not mutate the machine. A payload that outgrows
// it still encodes correctly; its buffer just grows.
func (m *Machine) snapshotCap() int {
	const (
		perReg    = 40       // free list, valid bit, refcount, forwarding and wakeup state
		perBTB    = 17       // tag, target, valid byte
		perThread = 16 << 10 // both workload generators, the rename map, the front end
		perUop    = 256      // a uop record and every reference to it
		tables    = 40 << 10 // predictor, DRA, histograms and counters
	)
	live := len(m.dead) - m.deadHead
	for _, t := range m.threads {
		live += t.window.len()
	}
	return m.memh.SnapshotSize() + tables +
		perReg*m.cfg.NumPhysRegs + perBTB*m.cfg.BTBEntries + m.cfg.StoreWaitSize +
		perThread*len(m.threads) + perUop*live
}

// Restore builds a machine from cfg and a checkpoint produced by
// Snapshot under a configuration with the same ConfigDigest. Corrupt or
// mismatched data returns an error (wrapping snap.ErrCorrupt for bad
// bytes); it never panics. The checkpoint carries every workload
// generator's full state, so restore costs the same at any stream
// position.
func Restore(cfg Config, data []byte) (*Machine, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	digest, err := ConfigDigest(cfg)
	if err != nil {
		return nil, err
	}
	meta, payload, err := snap.Open(data, snapMagic, snapVersion)
	if err != nil {
		return nil, err
	}
	if string(meta) != digest {
		return nil, fmt.Errorf("pipeline: checkpoint was taken under config %.12s…, restoring under %.12s…: %w",
			meta, digest, snap.ErrCorrupt)
	}
	c := snap.NewDecoder(payload)
	m.sync(c)
	if err := c.Expect(); err != nil {
		return nil, err
	}
	return m, nil
}

// RestoreReusing is Restore; donor is ignored. It remains only for
// callers written when restore replayed generator streams and a donor
// machine could shorten the replay.
func RestoreReusing(cfg Config, data []byte, donor *Machine) (*Machine, error) {
	return Restore(cfg, data)
}

// Cycle returns the machine's current cycle.
func (m *Machine) Cycle() int64 { return m.cycle }

// Retired returns the total retired correct-path instructions so far,
// warmup included.
func (m *Machine) Retired() uint64 { return m.ctr.Retired }

// RunUntilRetired advances the machine until at least n total
// instructions have retired (warmup included), using exactly the
// RunContext loop structure so that stopping here, snapshotting, and
// continuing — in this process or another — is cycle-for-cycle identical
// to an uninterrupted run.
func (m *Machine) RunUntilRetired(ctx context.Context, n uint64) error {
	done := ctx.Done()
	budget := m.cfg.CycleBudget
	if m.cfg.WarmupInstructions == 0 && !m.measuring {
		m.startMeasuring()
	}
	for m.ctr.Retired < n {
		if budget > 0 && m.cycle >= budget {
			return fmt.Errorf("%w: budget %d spent at cycle %d with %d retired",
				ErrCycleBudget, budget, m.cycle, m.ctr.Retired)
		}
		if done != nil && m.cycle&(cancelCheckInterval-1) == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		m.step()
		if !m.measuring && m.ctr.Retired >= m.cfg.WarmupInstructions {
			m.startMeasuring()
		}
		if m.cycle-m.lastRetireCycle > 500_000 {
			panic(fmt.Sprintf("pipeline: deadlock at cycle %d (%d retired, IQ %d/%d, inflight %d)",
				m.cycle, m.ctr.Retired, m.q.Len(), m.cfg.IQEntries, m.inFlight()))
		}
	}
	return nil
}

// wpWarmDepth is the wrong-path traffic model for functional warming: on
// each branch the warmed predictor would mispredict, this many wrong-path
// instructions are drawn from the thread's wrong-path generator and their
// loads and stores applied to the cache hierarchy. The detailed machine
// spends the branch-resolution latency fetching — and speculatively
// executing — the wrong path, and on these workloads that traffic touches
// the same working set, so skipping it leaves the warmed caches biased
// against the detailed machine's contents. The depth was calibrated on
// the tier-1 grid (docs/DESIGN.md §12): it sits near the detailed
// machine's observed wrong-path fetches per mispredict, and the sampled
// IPC bias crosses zero close to it on both the most branch-bound
// benchmarks (gcc, comp).
const wpWarmDepth = 64

// WarmForward is the functional-warming fast path: it draws n
// instructions round-robin across threads and applies only their cache,
// TLB, and predictor effects — no pipeline timing, no uops, no counters.
// This is how the sampler carries long-lived microarchitectural state
// (cache contents, predictor training) across the gap between measurement
// windows at a small fraction of cycle-accurate cost. Only meaningful on
// a machine that has not started detailed execution.
//
// The store-wait predictor is deliberately NOT warmed: a trap requires a
// load to issue before an older aliasing store resolves, which is a
// property of detailed timing that the functional stream cannot observe.
// Training on stream-order aliasing alone saturates the table and
// suppresses the memory-order trap replays the detailed machine actually
// takes (measured on gcc: warmed-table windows took zero traps where the
// detailed machine took several, hiding the replay cost). An empty table
// plus the per-window detailed warmup reproduces the trap rate almost
// exactly.
func (m *Machine) WarmForward(n uint64) {
	nt := len(m.threads)
	for i := uint64(0); i < n; i++ {
		ti := int(i) % nt
		t := m.threads[ti]
		in := t.gen.Next()
		switch in.Op {
		case isa.Load:
			m.memh.WarmLoad(in.Addr)
		case isa.Store:
			m.memh.WarmStore(in.Addr)
		case isa.Branch:
			predTaken := m.pred.Predict(in.PC)
			m.pred.Update(in.PC, in.Taken)
			if in.Taken {
				m.btb.Insert(in.PC, in.PC+64) // synthetic target, as resolveBranch
			}
			if predTaken != in.Taken {
				for j := 0; j < wpWarmDepth; j++ {
					win := t.wp.Next()
					switch win.Op {
					case isa.Load:
						m.memh.WarmLoad(win.Addr)
					case isa.Store:
						m.memh.WarmStore(win.Addr)
					default:
						// Wrong-path compute leaves no long-lived state.
					}
				}
			}
		default:
			// IntALU, IntMul, FPAdd, FPMul, FPDiv, Nop: pure compute, no
			// long-lived microarchitectural state to warm.
		}
	}
}

// Warmed returns the number of instructions the generators have produced
// so far across threads — the stream position a checkpoint captures.
func (m *Machine) Warmed() uint64 {
	var n uint64
	for _, t := range m.threads {
		n += t.gen.Generated()
	}
	return n
}

// ---------------------------------------------------------------------------
// Payload encoding.

// Sync encodes or decodes every Counters field in declaration order.
func (c *Counters) Sync(cd *snap.Codec) {
	cd.I64(&c.Cycles)
	cd.U64(&c.Retired)
	cd.U64(&c.Fetched)
	cd.U64(&c.WrongPathFetch)
	cd.U64(&c.BTBBubbles)
	cd.U64(&c.RenameStallIQ)
	cd.U64(&c.FrontStalls)
	cd.U64(&c.Branches)
	cd.U64(&c.Mispredicts)
	cd.U64(&c.SquashedTotal)
	cd.U64(&c.SquashedIssued)
	cd.U64(&c.BranchResLatSum)
	cd.U64(&c.Loads)
	cd.U64(&c.L1Misses)
	cd.U64(&c.L2Misses)
	cd.U64(&c.BankConflicts)
	cd.U64(&c.LoadMisspecs)
	cd.U64(&c.DataReissues)
	cd.U64(&c.LoadRefetches)
	cd.U64(&c.TLBMissTraps)
	cd.U64(&c.MemOrderTraps)
	cd.U64(&c.StoreForwards)
	cd.U64(&c.IssuedTotal)
	cd.U64(&c.ExecutedUseful)
	cd.U64(&c.OperandsRead)
	cd.U64(&c.OperandPreRead)
	cd.U64(&c.OperandForwarded)
	cd.U64(&c.OperandCRC)
	cd.U64(&c.OperandMisses)
	cd.U64(&c.OperandReissues)
}

// Sync encodes or decodes every CycleStack bucket in declaration order.
func (s *CycleStack) Sync(c *snap.Codec) {
	c.I64(&s.Retiring)
	c.I64(&s.FrontEnd)
	c.I64(&s.Decode)
	c.I64(&s.IQWait)
	c.I64(&s.MemExec)
	c.I64(&s.Exec)
}

// uopTable numbers a checkpoint's live uops: uops maps an id to its
// record and ids maps a record back to its id, in both directions.
// Encoding builds it from the machine; decoding builds it from the
// payload, and seen tracks window/dead membership.
type uopTable struct {
	uops []*uop.UOp
	ids  map[*uop.UOp]uint32
	seen []bool
}

func (tab *uopTable) add(u *uop.UOp) {
	if _, dup := tab.ids[u]; dup {
		panic(fmt.Sprintf("pipeline: snapshot: %v appears twice in the live set", u))
	}
	tab.ids[u] = uint32(len(tab.uops))
	tab.uops = append(tab.uops, u)
}

// ref encodes or decodes one uop reference as a u32 id. Only a nilOK
// reference may be nil (encoded as noUop); decoding any other id outside
// the table latches snap.ErrCorrupt and yields nil.
func (tab *uopTable) ref(c *snap.Codec, u **uop.UOp, context string, nilOK bool) {
	v := noUop
	if !c.Decoding() && *u != nil {
		id, ok := tab.ids[*u]
		if !ok {
			panic(fmt.Sprintf("pipeline: snapshot: reference to %v outside the live set", *u))
		}
		v = id
	}
	c.U32(&v)
	if !c.Decoding() {
		return
	}
	*u = nil
	switch {
	case c.Err() != nil, v == noUop && nilOK:
	case v >= uint32(len(tab.uops)):
		c.Failf("%s: uop id %d of %d", context, v, len(tab.uops))
	default:
		*u = tab.uops[v]
	}
}

// list encodes or decodes a length-prefixed list of uop references;
// decoding replaces *us.
func (tab *uopTable) list(c *snap.Codec, us *[]*uop.UOp, context string) {
	n := c.Len(len(*us), len(tab.uops))
	if c.Decoding() {
		*us = slices.Grow((*us)[:0], n)[:n]
	}
	for i := range *us {
		tab.ref(c, &(*us)[i], context, false)
	}
}

// queue encodes or decodes a window or decode pipe, oldest first.
// Decoding pushes the members onto the fresh deque d, claiming each one
// when member is set.
func (tab *uopTable) queue(c *snap.Codec, d *deque, context string, member bool) {
	var items []*uop.UOp
	if !c.Decoding() {
		items = d.items()
	}
	tab.list(c, &items, context)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	for _, u := range items {
		if member {
			tab.claim(c, u)
		}
		d.push(u)
	}
}

// claim records, when decoding, that u sits in a window or the dead
// queue: each live uop must sit in exactly one.
func (tab *uopTable) claim(c *snap.Codec, u *uop.UOp) {
	id := tab.ids[u]
	if tab.seen[id] {
		c.Failf("uop %d in two containers", id)
	}
	tab.seen[id] = true
}

// sync encodes or decodes the machine's state; m is freshly built by New
// when decoding. The live-uop table comes first; every later uop
// reference is a u32 index into it. Decoding bounds-checks every index,
// enum, and count against the machine's geometry; any violation latches
// snap.ErrCorrupt and the caller discards the machine.
func (m *Machine) sync(c *snap.Codec) {
	dec := c.Decoding()
	c.I64(&m.cycle)
	c.U64(&m.seq)

	// Live-uop table: thread windows front-to-back, then the dead queue.
	// Decoding draws records from the pool exactly as fetch would, and
	// checks each against the geometry before any index can touch a
	// slice.
	tab := uopTable{ids: make(map[*uop.UOp]uint32)}
	if !dec {
		for _, t := range m.threads {
			for _, u := range t.window.items() {
				tab.add(u)
			}
		}
		for _, rec := range m.dead[m.deadHead:] {
			tab.add(rec.u)
		}
	}
	n := c.Len(len(tab.uops), maxSnapUops)
	for i := 0; i < n; i++ {
		if dec {
			tab.add(m.pool.Get(isa.Inst{}, 0, 0, 0))
		}
		tab.uops[i].Sync(c)
		if dec && !m.checkUop(c, i, tab.uops[i]) {
			return
		}
	}
	if dec {
		tab.seen = make([]bool, n)
	}

	// Per-thread front-end and window state, starting with the full state
	// of both workload generators.
	for _, t := range m.threads {
		t.gen.Sync(c)
		t.wp.Sync(c)
		tab.queue(c, &t.window, "window", true)
		tab.queue(c, &t.decode, "decode", false)
		c.Bool(&t.wrongPath)
		tab.ref(c, &t.wpBranch, "wpBranch", true)
		rn := c.Len(len(t.replay)-t.replayHead, maxSnapReplay)
		if dec {
			t.replay, t.replayHead = t.replay[:0], 0
		}
		for i := 0; i < rn; i++ {
			if dec {
				t.replay = append(t.replay, isa.Inst{})
			}
			t.replay[t.replayHead+i].Sync(c)
			if c.Err() != nil {
				return
			}
		}
		tab.list(c, &t.memStores, "memStores")
		tab.list(c, &t.memLoads, "memLoads")
		c.U64(&t.minUnexecStore)
		c.I64(&t.fetchBlockedUntil)
		c.U64(&t.retired)
		c.U64(&t.warmRetired)
		if c.Err() != nil {
			return
		}
	}

	// Wakeup state, ahead of the IQ entry lists so that restore's inserts
	// park against the restored wakeup times.
	var readyAt []int64
	if dec {
		readyAt = make([]int64, m.cfg.NumPhysRegs)
	} else {
		readyAt = m.q.ReadyTimes()
	}
	c.I64s(readyAt)
	c.I64s(m.actualAt)
	c.Fixed(len(m.regGen))
	for i := range m.regGen {
		c.U32(&m.regGen[i])
	}
	if c.Err() != nil {
		return
	}
	if dec {
		for p, at := range readyAt {
			m.q.SetReady(regfile.PReg(p), at)
		}
	}

	// IQ entry lists, rebuilt through Insert on restore.
	var inIQ []bool
	if dec {
		inIQ = make([]bool, n)
	}
	for cl := 0; cl < m.cfg.Clusters; cl++ {
		var entries []*uop.UOp
		if !dec {
			entries = m.q.ClusterEntries(cl)
		}
		tab.list(c, &entries, "iq")
		if dec && !m.reinsert(c, &tab, inIQ, cl, entries) {
			return
		}
	}
	for i, in := range inIQ {
		if tab.uops[i].InIQ != in {
			c.Failf("uop %d marked InIQ but in no cluster list", i)
			return
		}
	}

	// Subsystems.
	m.rf.Sync(c)
	m.fb.Sync(c)
	m.memh.Sync(c)
	m.pred.Sync(c)
	m.btb.Sync(c)
	m.swPred.Sync(c)
	if m.dra != nil {
		m.dra.Sync(c)
	}
	if c.Err() != nil {
		return
	}

	// Event rings: per kind, the non-empty future slots in cycle order.
	// At a step boundary every slot holds events for exactly one cycle in
	// (m.cycle, m.cycle+ringCycles), so (kind, offset) identifies a slot.
	// Offsets are relative, so the encoding does not depend on the ring
	// length.
	for kind := range m.rings {
		ring := &m.rings[kind]
		var offs []uint16
		if !dec {
			for off := int64(1); off < m.ringCycles; off++ {
				if len(*ring.slot(m.cycle + off)) > 0 {
					offs = append(offs, uint16(off))
				}
			}
		}
		slots := c.Len(len(offs), int(m.ringCycles)-1)
		prev := uint16(0)
		for s := 0; s < slots; s++ {
			var off uint16
			if !dec {
				off = offs[s]
			}
			c.U16(&off)
			if dec && (off <= prev || int64(off) >= m.ringCycles) {
				c.Failf("ring %d: slot offset %d after %d", kind, off, prev)
				return
			}
			prev = off
			var evs []event
			if !dec {
				evs = *ring.slot(m.cycle + int64(off))
			}
			cnt := c.Len(len(evs), n)
			for i := 0; i < cnt; i++ {
				var e event
				if !dec {
					e = evs[i]
				}
				tab.ref(c, &e.u, "event", false)
				c.I32(&e.tag)
				c.U32(&e.gen)
				if dec {
					if c.Err() != nil {
						return
					}
					ring.schedule(m.cycle+int64(off), e)
				}
			}
		}
	}

	// Measurement and observability state.
	m.ctr.Sync(c)
	m.warmSnap.Sync(c)
	c.Bool(&m.measuring)
	m.opGap.Sync(c)
	c.U64(&m.occSum)
	c.U64(&m.retainSum)
	c.U64(&m.samples)
	m.stack.Sync(c)
	m.warmStack.Sync(c)
	m.ivSnap.Sync(c)
	c.I64(&m.ivStart)
	c.Int(&m.ivIndex)
	c.U64(&m.ivOcc)

	c.I64(&m.frontStallUntil)
	c.I64(&m.lastRetireCycle)
	c.Int(&m.rrRename)
	c.Int(&m.rrRetire)
	c.Int(&m.rrFetch)

	// Dead queue (head-normalized: restore starts at deadHead = 0).
	dn := c.Len(len(m.dead)-m.deadHead, n)
	if dec {
		m.dead, m.deadHead = slices.Grow(m.dead[:0], dn)[:dn], 0
	}
	for i := range m.dead[m.deadHead:] {
		rec := &m.dead[m.deadHead+i]
		tab.ref(c, &rec.u, "dead", false)
		c.I64(&rec.at)
		if dec {
			if c.Err() != nil {
				return
			}
			tab.claim(c, rec.u)
		}
	}

	// Every table entry must live in exactly one container, or the pool
	// recycling discipline breaks on the restored machine.
	if dec {
		for i, s := range tab.seen {
			if !s {
				c.Failf("uop %d in no window and not dead", i)
				return
			}
		}
	}
}

// checkUop bounds a decoded uop against the machine's geometry.
func (m *Machine) checkUop(c *snap.Codec, i int, u *uop.UOp) bool {
	if c.Err() != nil {
		return false
	}
	if u.Thread >= len(m.threads) {
		c.Failf("uop %d: thread %d of %d", i, u.Thread, len(m.threads))
		return false
	}
	if u.Cluster >= m.cfg.Clusters {
		c.Failf("uop %d: cluster %d of %d", i, u.Cluster, m.cfg.Clusters)
		return false
	}
	for _, p := range []regfile.PReg{u.Dest, u.OldPhy, u.Src[0], u.Src[1]} {
		if p < -1 || int(p) >= m.cfg.NumPhysRegs {
			c.Failf("uop %d: preg %d of %d", i, p, m.cfg.NumPhysRegs)
			return false
		}
	}
	// A source the uop reads must name a register: the IQ files a
	// waiting entry under its sources' wakeup times.
	for k := 0; k < u.NumSrc; k++ {
		if u.Src[k] == regfile.PRegInvalid {
			c.Failf("uop %d: source %d of %d names no register", i, k, u.NumSrc)
			return false
		}
	}
	return true
}

// reinsert rebuilds cluster cl's IQ entries through Insert, which
// re-checks capacity and files every waiting entry — parked or armed
// against the wakeup times just restored — and rebuilds the retained
// count from the entries' states. inIQ marks, by id, the uops already
// inserted.
func (m *Machine) reinsert(c *snap.Codec, tab *uopTable, inIQ []bool, cl int, entries []*uop.UOp) bool {
	if c.Err() != nil {
		return false
	}
	for i, u := range entries {
		id := tab.ids[u]
		if inIQ[id] || !u.InIQ || u.Cluster != cl {
			c.Failf("iq cluster %d entry %d: inconsistent membership for uop %d", cl, i, id)
			return false
		}
		if u.State == uop.StateDecode || u.State == uop.StateSquashed {
			c.Failf("iq cluster %d entry %d: uop %d in state %v cannot hold an entry", cl, i, id, u.State)
			return false
		}
		inIQ[id] = true
		u.InIQ = false
		if !m.q.Insert(u) {
			c.Failf("iq cluster %d: overfull", cl)
			return false
		}
	}
	return true
}
