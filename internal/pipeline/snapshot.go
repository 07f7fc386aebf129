package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"loosesim/internal/bpred"
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
	w := snap.Begin(snapMagic, snapVersion, []byte(digest), m.snapshotCap())
	m.encodePayload(&w)
	return w.Seal(), nil
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
	r := snap.NewReader(payload)
	m.restorePayload(r)
	if err := r.Expect(); err != nil {
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

// snapCounters writes every Counters field in declaration order.
func snapCounters(w *snap.Writer, c Counters) {
	w.I64(c.Cycles)
	w.U64(c.Retired)
	w.U64(c.Fetched)
	w.U64(c.WrongPathFetch)
	w.U64(c.BTBBubbles)
	w.U64(c.RenameStallIQ)
	w.U64(c.FrontStalls)
	w.U64(c.Branches)
	w.U64(c.Mispredicts)
	w.U64(c.SquashedTotal)
	w.U64(c.SquashedIssued)
	w.U64(c.BranchResLatSum)
	w.U64(c.Loads)
	w.U64(c.L1Misses)
	w.U64(c.L2Misses)
	w.U64(c.BankConflicts)
	w.U64(c.LoadMisspecs)
	w.U64(c.DataReissues)
	w.U64(c.LoadRefetches)
	w.U64(c.TLBMissTraps)
	w.U64(c.MemOrderTraps)
	w.U64(c.StoreForwards)
	w.U64(c.IssuedTotal)
	w.U64(c.ExecutedUseful)
	w.U64(c.OperandsRead)
	w.U64(c.OperandPreRead)
	w.U64(c.OperandForwarded)
	w.U64(c.OperandCRC)
	w.U64(c.OperandMisses)
	w.U64(c.OperandReissues)
}

func restoreCounters(r *snap.Reader) Counters {
	var c Counters
	c.Cycles = r.I64()
	c.Retired = r.U64()
	c.Fetched = r.U64()
	c.WrongPathFetch = r.U64()
	c.BTBBubbles = r.U64()
	c.RenameStallIQ = r.U64()
	c.FrontStalls = r.U64()
	c.Branches = r.U64()
	c.Mispredicts = r.U64()
	c.SquashedTotal = r.U64()
	c.SquashedIssued = r.U64()
	c.BranchResLatSum = r.U64()
	c.Loads = r.U64()
	c.L1Misses = r.U64()
	c.L2Misses = r.U64()
	c.BankConflicts = r.U64()
	c.LoadMisspecs = r.U64()
	c.DataReissues = r.U64()
	c.LoadRefetches = r.U64()
	c.TLBMissTraps = r.U64()
	c.MemOrderTraps = r.U64()
	c.StoreForwards = r.U64()
	c.IssuedTotal = r.U64()
	c.ExecutedUseful = r.U64()
	c.OperandsRead = r.U64()
	c.OperandPreRead = r.U64()
	c.OperandForwarded = r.U64()
	c.OperandCRC = r.U64()
	c.OperandMisses = r.U64()
	c.OperandReissues = r.U64()
	return c
}

func snapStack(w *snap.Writer, s CycleStack) {
	w.I64(s.Retiring)
	w.I64(s.FrontEnd)
	w.I64(s.Decode)
	w.I64(s.IQWait)
	w.I64(s.MemExec)
	w.I64(s.Exec)
}

func restoreStack(r *snap.Reader) CycleStack {
	var s CycleStack
	s.Retiring = r.I64()
	s.FrontEnd = r.I64()
	s.Decode = r.I64()
	s.IQWait = r.I64()
	s.MemExec = r.I64()
	s.Exec = r.I64()
	return s
}

// encodePayload writes the machine's state. The live-uop table comes
// first; every later uop reference is a u32 index into it.
func (m *Machine) encodePayload(w *snap.Writer) {
	w.I64(m.cycle)
	w.U64(m.seq)

	// Live-uop table: thread windows front-to-back, then the dead queue.
	ids := make(map[*uop.UOp]uint32)
	var table []*uop.UOp
	add := func(u *uop.UOp) {
		if _, dup := ids[u]; dup {
			panic(fmt.Sprintf("pipeline: snapshot: %v appears twice in the live set", u))
		}
		ids[u] = uint32(len(table))
		table = append(table, u)
	}
	for _, t := range m.threads {
		for i := 0; i < t.window.len(); i++ {
			add(t.window.at(i))
		}
	}
	for _, rec := range m.dead[m.deadHead:] {
		add(rec.u)
	}
	id := func(u *uop.UOp) uint32 {
		if u == nil {
			return noUop
		}
		i, ok := ids[u]
		if !ok {
			panic(fmt.Sprintf("pipeline: snapshot: reference to %v outside the live set", u))
		}
		return i
	}
	idList := func(us []*uop.UOp) {
		w.Len(len(us))
		for _, u := range us {
			w.U32(id(u))
		}
	}
	w.Len(len(table))
	for _, u := range table {
		u.Snapshot(w)
	}

	// Per-thread front-end and window state, starting with the full state
	// of both workload generators.
	for _, t := range m.threads {
		t.gen.Snapshot(w)
		t.wp.Snapshot(w)
		w.Len(t.window.len())
		for i := 0; i < t.window.len(); i++ {
			w.U32(id(t.window.at(i)))
		}
		w.Len(t.decode.len())
		for i := 0; i < t.decode.len(); i++ {
			w.U32(id(t.decode.at(i)))
		}
		w.Bool(t.wrongPath)
		w.U32(id(t.wpBranch))
		w.Len(len(t.replay) - t.replayHead)
		for _, in := range t.replay[t.replayHead:] {
			in.Snapshot(w)
		}
		idList(t.memStores)
		idList(t.memLoads)
		w.U64(t.minUnexecStore)
		w.I64(t.fetchBlockedUntil)
		w.U64(t.retired)
		w.U64(t.warmRetired)
	}

	// Wakeup state, ahead of the IQ entry lists so that restore's inserts
	// park against the restored wakeup times.
	w.I64s(m.q.ReadyTimes())
	w.I64s(m.actualAt)
	w.Len(len(m.regGen))
	for _, g := range m.regGen {
		w.U32(g)
	}

	// IQ entry lists (rebuilt through Insert on restore).
	for c := 0; c < m.cfg.Clusters; c++ {
		idList(m.q.ClusterEntries(c))
	}

	// Subsystems.
	m.rf.Snapshot(w)
	m.fb.Snapshot(w)
	m.memh.Snapshot(w)
	bpred.SnapshotPredictor(w, m.pred)
	m.btb.Snapshot(w)
	m.swPred.Snapshot(w)
	if m.dra != nil {
		m.dra.Snapshot(w)
	}

	// Event rings: per kind, the non-empty future slots in cycle order.
	// At a step boundary every slot holds events for exactly one cycle in
	// (m.cycle, m.cycle+ringCycles), so (kind, offset) identifies a slot.
	// Offsets are relative, so the encoding does not depend on the ring
	// length.
	for kind := 0; kind < numEvKinds; kind++ {
		nonEmpty := 0
		for off := int64(1); off < m.ringCycles; off++ {
			if len(*m.rings[kind].slot(m.cycle + off)) > 0 {
				nonEmpty++
			}
		}
		w.Len(nonEmpty)
		for off := int64(1); off < m.ringCycles; off++ {
			slot := *m.rings[kind].slot(m.cycle + off)
			if len(slot) == 0 {
				continue
			}
			w.U16(uint16(off))
			w.Len(len(slot))
			for _, e := range slot {
				w.U32(id(e.u))
				w.I32(e.tag)
				w.U32(e.gen)
			}
		}
	}

	// Measurement and observability state.
	snapCounters(w, m.ctr)
	snapCounters(w, m.warmSnap)
	w.Bool(m.measuring)
	m.opGap.Snapshot(w)
	w.U64(m.occSum)
	w.U64(m.retainSum)
	w.U64(m.samples)
	snapStack(w, m.stack)
	snapStack(w, m.warmStack)
	snapCounters(w, m.ivSnap)
	w.I64(m.ivStart)
	w.Int(m.ivIndex)
	w.U64(m.ivOcc)

	w.I64(m.frontStallUntil)
	w.I64(m.lastRetireCycle)
	w.Int(m.rrRename)
	w.Int(m.rrRetire)
	w.Int(m.rrFetch)

	// Dead queue (head-normalized: restore starts at deadHead = 0).
	w.Len(len(m.dead) - m.deadHead)
	for _, rec := range m.dead[m.deadHead:] {
		w.U32(id(rec.u))
		w.I64(rec.at)
	}
}

// restorePayload overwrites m (freshly built by New) with the encoded
// state. Every index, enum, and count is bounds-checked against the
// machine's geometry; any violation latches snap.ErrCorrupt on r and the
// caller discards the machine.
func (m *Machine) restorePayload(r *snap.Reader) {
	m.cycle = r.I64()
	m.seq = r.U64()

	// Live-uop table. Records come from the pool exactly as fetch would
	// draw them; the member check runs per uop so corrupt indices fail
	// before they can touch a slice.
	n := r.Len(maxSnapUops)
	if r.Err() != nil {
		return
	}
	uops := make([]*uop.UOp, n)
	for i := range uops {
		u := m.pool.Get(isa.Inst{}, 0, 0, 0)
		u.Restore(r)
		if r.Err() != nil {
			return
		}
		if u.Thread >= len(m.threads) {
			r.Failf("uop %d: thread %d of %d", i, u.Thread, len(m.threads))
			return
		}
		if u.Cluster >= m.cfg.Clusters {
			r.Failf("uop %d: cluster %d of %d", i, u.Cluster, m.cfg.Clusters)
			return
		}
		for _, p := range []int32{int32(u.Dest), int32(u.OldPhy), int32(u.Src[0]), int32(u.Src[1])} {
			if p < -1 || int(p) >= m.cfg.NumPhysRegs {
				r.Failf("uop %d: preg %d of %d", i, p, m.cfg.NumPhysRegs)
				return
			}
		}
		// A source the uop reads must name a register: the IQ files a
		// waiting entry under its sources' wakeup times.
		for k := 0; k < u.NumSrc; k++ {
			if u.Src[k] == regfile.PRegInvalid {
				r.Failf("uop %d: source %d of %d names no register", i, k, u.NumSrc)
				return
			}
		}
		uops[i] = u
	}
	seen := make([]bool, n) // window/dead membership: each uop exactly once
	byID := func(context string) (int, bool) {
		v := r.U32()
		if r.Err() != nil {
			return 0, false
		}
		if v >= uint32(n) {
			r.Failf("%s: uop id %d of %d", context, v, n)
			return 0, false
		}
		return int(v), true
	}
	idList := func(context string, dst []*uop.UOp) []*uop.UOp {
		cnt := r.Len(n)
		for i := 0; i < cnt; i++ {
			idx, ok := byID(context)
			if !ok {
				return dst
			}
			dst = append(dst, uops[idx])
		}
		return dst
	}

	// Threads.
	for _, t := range m.threads {
		t.gen.Restore(r)
		t.wp.Restore(r)
		if r.Err() != nil {
			return
		}
		wn := r.Len(n)
		for i := 0; i < wn; i++ {
			idx, ok := byID("window")
			if !ok {
				return
			}
			if seen[idx] {
				r.Failf("uop %d in two containers", idx)
				return
			}
			seen[idx] = true
			t.window.push(uops[idx])
		}
		dn := r.Len(n)
		for i := 0; i < dn; i++ {
			idx, ok := byID("decode")
			if !ok {
				return
			}
			t.decode.push(uops[idx])
		}
		t.wrongPath = r.Bool()
		if v := r.U32(); v != noUop {
			if v >= uint32(n) {
				r.Failf("wpBranch: uop id %d of %d", v, n)
				return
			}
			t.wpBranch = uops[v]
		}
		rn := r.Len(maxSnapReplay)
		if r.Err() != nil {
			return
		}
		t.replay = t.replay[:0]
		t.replayHead = 0
		for i := 0; i < rn; i++ {
			var in isa.Inst
			in.Restore(r)
			if r.Err() != nil {
				return
			}
			t.replay = append(t.replay, in)
		}
		t.memStores = idList("memStores", t.memStores)
		t.memLoads = idList("memLoads", t.memLoads)
		t.minUnexecStore = r.U64()
		t.fetchBlockedUntil = r.I64()
		t.retired = r.U64()
		t.warmRetired = r.U64()
		if r.Err() != nil {
			return
		}
	}

	// Wakeup state.
	readyAt := r.I64s(m.cfg.NumPhysRegs)
	actualAt := r.I64s(m.cfg.NumPhysRegs)
	if len(readyAt) != m.cfg.NumPhysRegs || len(actualAt) != m.cfg.NumPhysRegs {
		r.Failf("wakeup state: %d/%d entries, want %d", len(readyAt), len(actualAt), m.cfg.NumPhysRegs)
		return
	}
	for p, at := range readyAt {
		m.q.SetReady(regfile.PReg(p), at)
	}
	copy(m.actualAt, actualAt)
	gn := r.Len(m.cfg.NumPhysRegs)
	if gn != m.cfg.NumPhysRegs {
		r.Failf("regGen: %d entries, want %d", gn, m.cfg.NumPhysRegs)
		return
	}
	for i := 0; i < gn; i++ {
		m.regGen[i] = r.U32()
	}

	// IQ: rebuild the entry lists through Insert, which re-checks
	// capacity and files every waiting entry — parked or armed against
	// the wakeup times just restored — and rebuilds the retained count
	// from the entries' states.
	inIQ := make([]bool, n)
	for c := 0; c < m.cfg.Clusters; c++ {
		cnt := r.Len(n)
		for i := 0; i < cnt; i++ {
			idx, ok := byID("iq")
			if !ok {
				return
			}
			u := uops[idx]
			if inIQ[idx] || !u.InIQ || u.Cluster != c {
				r.Failf("iq cluster %d entry %d: inconsistent membership for uop %d", c, i, idx)
				return
			}
			if u.State == uop.StateDecode || u.State == uop.StateSquashed {
				r.Failf("iq cluster %d entry %d: uop %d in state %v cannot hold an entry", c, i, idx, u.State)
				return
			}
			inIQ[idx] = true
			u.InIQ = false
			if !m.q.Insert(u) {
				r.Failf("iq cluster %d: overfull", c)
				return
			}
		}
	}
	for i, u := range uops {
		if u.InIQ != inIQ[i] {
			r.Failf("uop %d marked InIQ but in no cluster list", i)
			return
		}
	}

	// Subsystems.
	m.rf.Restore(r)
	m.fb.Restore(r)
	m.memh.Restore(r)
	bpred.RestorePredictor(r, m.pred)
	m.btb.Restore(r)
	m.swPred.Restore(r)
	if m.dra != nil {
		m.dra.Restore(r)
	}
	if r.Err() != nil {
		return
	}

	// Event rings.
	for kind := 0; kind < numEvKinds; kind++ {
		slots := r.Len(int(m.ringCycles) - 1)
		prevOff := 0
		for s := 0; s < slots; s++ {
			off := int(r.U16())
			if off <= prevOff || off >= int(m.ringCycles) {
				r.Failf("ring %d: slot offset %d after %d", kind, off, prevOff)
				return
			}
			prevOff = off
			cnt := r.Len(n)
			for i := 0; i < cnt; i++ {
				idx, ok := byID("event")
				if !ok {
					return
				}
				tag := r.I32()
				gen := r.U32()
				m.rings[kind].schedule(m.cycle+int64(off), event{u: uops[idx], tag: tag, gen: gen})
			}
		}
	}

	// Measurement and observability state.
	m.ctr = restoreCounters(r)
	m.warmSnap = restoreCounters(r)
	m.measuring = r.Bool()
	m.opGap.Restore(r)
	m.occSum = r.U64()
	m.retainSum = r.U64()
	m.samples = r.U64()
	m.stack = restoreStack(r)
	m.warmStack = restoreStack(r)
	m.ivSnap = restoreCounters(r)
	m.ivStart = r.I64()
	m.ivIndex = r.Int()
	m.ivOcc = r.U64()

	m.frontStallUntil = r.I64()
	m.lastRetireCycle = r.I64()
	m.rrRename = r.Int()
	m.rrRetire = r.Int()
	m.rrFetch = r.Int()

	// Dead queue.
	dn := r.Len(n)
	for i := 0; i < dn; i++ {
		idx, ok := byID("dead")
		if !ok {
			return
		}
		if seen[idx] {
			r.Failf("uop %d in two containers", idx)
			return
		}
		seen[idx] = true
		at := r.I64()
		m.dead = append(m.dead, deadRecord{u: uops[idx], at: at})
	}
	m.deadHead = 0

	// Every table entry must live in exactly one container, or the pool
	// recycling discipline breaks on the restored machine.
	for i, s := range seen {
		if !s {
			r.Failf("uop %d in no window and not dead", i)
			return
		}
	}
}
