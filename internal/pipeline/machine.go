package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"loosesim/internal/bpred"
	"loosesim/internal/core"
	"loosesim/internal/fwd"
	"loosesim/internal/iq"
	"loosesim/internal/isa"
	"loosesim/internal/mem"
	"loosesim/internal/obs"
	"loosesim/internal/regfile"
	"loosesim/internal/stats"
	"loosesim/internal/uop"
	"loosesim/internal/workload"
)

// threadState is one hardware thread's front-end and window state.
type threadState struct {
	id  int
	gen *workload.Generator // correct-path stream
	wp  *workload.Generator // wrong-path filler stream

	window deque // every fetched, unretired, unsquashed uop, fetch order
	decode deque // the subset still in the DEC-IQ pipe

	wrongPath bool
	wpBranch  *uop.UOp // the unresolved mispredicted branch, if any

	// replay holds correct-path instructions flushed by a fetch-stage
	// recovery (trap or refetch-policy load recovery); fetch re-delivers
	// them before drawing new instructions from the generator. The buffer
	// is head-indexed rather than re-sliced so its storage is stable: the
	// consumed prefix [0, replayHead) doubles as prepend room for the next
	// squash, keeping replayPrepend allocation-free in steady state.
	replay     []isa.Inst
	replayHead int

	// Memory dependence tracking (memdep.go): in-flight correct-path
	// stores in program order, executed unretired loads, and the oldest
	// store whose address is still unknown (refreshed each cycle).
	memStores      []*uop.UOp
	memLoads       []*uop.UOp
	minUnexecStore uint64

	fetchBlockedUntil int64
	retired           uint64
	warmRetired       uint64
}

// Machine is one configured simulation instance. Create with New, run with
// Run; a Machine is single-use.
type Machine struct {
	cfg Config

	cycle int64
	seq   uint64

	pred   bpred.Predictor
	btb    *bpred.BTB
	swPred *bpred.StoreWait
	rf     *regfile.File
	fb     *fwd.Buffer
	q      *iq.Queue
	dra    *core.DRA // nil unless cfg.UseDRA
	memh   *mem.Hierarchy

	threads []*threadState

	// Per-physical-register wakeup state. The IQ owns the (possibly
	// speculative) belief of when each value is available at the FUs
	// (iq.Queue.SetReady); actualAt is ground truth, set when the
	// producer's timing resolves. regGen counts reallocations, guarding
	// in-flight writeback events.
	actualAt []int64
	regGen   []uint32

	// Event rings. horizon is the config's event horizon: no event lands
	// further ahead. ringCycles, every ring's length, is the smallest power
	// of two above it, and also how long a dead uop record waits for reuse.
	rings      [numEvKinds]eventRing
	horizon    int64
	ringCycles int64

	ctr       Counters
	warmSnap  Counters
	measuring bool
	opGap     *stats.Histogram
	occSum    uint64
	retainSum uint64
	samples   uint64

	stack     CycleStack
	warmStack CycleStack

	// Observability (internal/obs): the event sink, and the interval
	// probe's sink, period, and open-interval state. Both sinks nil is
	// the fast path — see pipeline/obs.go.
	evSink      obs.EventSink
	ivSink      obs.IntervalSink
	sampleEvery int64
	ivSnap      Counters
	ivStart     int64
	ivIndex     int
	ivOcc       uint64

	frontStallUntil int64
	lastRetireCycle int64
	rrRename        int
	rrRetire        int
	rrFetch         int

	// Uop recycling. fetch draws records from pool; retire and squash
	// enqueue dead records on the delay queue, and reclaimDead returns
	// them to the pool once every stale reference has provably expired.
	pool     uop.Pool
	dead     []deadRecord
	deadHead int
}

// deadRecord is one retired or squashed uop awaiting reuse: at is the first
// cycle the record may be recycled. Death cycles are non-decreasing and the
// delay is fixed per machine, so the queue stays sorted by construction. A
// checkpoint written with a longer delay can restore records due after ones
// queued later; reclaimDead stops at the first unexpired record, so those
// only wait longer, never less.
type deadRecord struct {
	u  *uop.UOp
	at int64
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:   cfg,
		rf:    regfile.NewFile(cfg.NumPhysRegs, len(cfg.Workload.Threads)),
		fb:    fwd.New(cfg.NumPhysRegs, cfg.FwdDepth, cfg.WBDelay),
		q:     iq.New(iq.Config{Entries: cfg.IQEntries, Clusters: cfg.Clusters, Regs: cfg.NumPhysRegs}),
		memh:  mem.NewHierarchy(cfg.Mem),
		btb:   bpred.NewBTB(cfg.BTBEntries),
		opGap: stats.NewHistogram(100),
	}
	switch cfg.Predictor {
	case PredBimodal:
		m.pred = bpred.NewBimodal(4096)
	case PredGShare:
		m.pred = bpred.NewGShare(4096, 12)
	case PredStatic:
		m.pred = &bpred.Static{Taken: true}
	case PredPerceptron:
		m.pred = bpred.NewDefaultPerceptron()
	default:
		m.pred = bpred.NewDefaultTournament()
	}
	if cfg.UseDRA {
		m.dra = core.New(cfg.DRA, cfg.NumPhysRegs)
	}
	m.swPred = bpred.NewStoreWait(cfg.StoreWaitSize, cfg.StoreWaitClear)
	m.horizon = int64(cfg.eventHorizon())
	m.ringCycles = int64(1) << bits.Len64(uint64(m.horizon))
	m.rings = newEventRings(int(m.ringCycles))
	m.evSink = cfg.Events
	if cfg.Intervals != nil {
		m.ivSink = cfg.Intervals
		m.sampleEvery = cfg.SampleInterval
		if m.sampleEvery == 0 {
			m.sampleEvery = DefaultSampleInterval
		}
	}
	m.actualAt = make([]int64, cfg.NumPhysRegs)
	m.regGen = make([]uint32, cfg.NumPhysRegs)
	for i, p := range cfg.Workload.Threads {
		m.threads = append(m.threads, &threadState{
			id: i,
			// The wrong-path stream shares the thread's address space:
			// wrong-path loads touch the same data regions the correct
			// path does, so cache pollution is realistic rather than a
			// doubling of the footprint.
			gen: workload.NewGenerator(p, cfg.Seed+int64(i)*7919, uint64(i)<<33),
			wp:  workload.NewGenerator(p, cfg.Seed+int64(i)*7919+104729, uint64(i)<<33),
			// Tracked memory instructions are in-flight by definition, so
			// MaxInFlight caps both lists; sized here so the per-cycle
			// track calls never grow them.
			memLoads:  make([]*uop.UOp, 0, cfg.MaxInFlight),
			memStores: make([]*uop.UOp, 0, cfg.MaxInFlight),
		})
	}
	return m, nil
}

// Run simulates until the warmup plus measurement instruction budget
// retires and returns the measurement-window result. It is RunContext
// under a background context; callers that set Config.CycleBudget should
// prefer RunContext, since Run reports a budget abort only as a nil
// Result.
func (m *Machine) Run() *Result {
	res, _ := m.RunContext(context.Background())
	return res
}

// cancelCheckInterval is how often, in simulated cycles, RunContext polls
// its context. A power of two keeps the check to a mask and a compare; at
// 4096 cycles the poll is invisible in profiles yet bounds the abort
// latency to well under a millisecond of host time.
const cancelCheckInterval = 1 << 12

// ErrCycleBudget is returned by RunContext when Config.CycleBudget expires
// before the measurement window completes.
var ErrCycleBudget = errors.New("pipeline: cycle budget exhausted")

// RunContext is Run with cooperative cancellation: every
// cancelCheckInterval cycles the machine polls ctx and aborts with
// ctx.Err() if it is done, and a positive Config.CycleBudget aborts the
// run with ErrCycleBudget once the cycle counter passes it. Both checks
// are outside the modelled machine — a run that finishes is identical to
// the same run under Run. On abort the partial state is discarded and the
// Result is nil; a Machine is single-use either way.
func (m *Machine) RunContext(ctx context.Context) (*Result, error) {
	done := ctx.Done()
	budget := m.cfg.CycleBudget
	if m.cfg.WarmupInstructions == 0 && !m.measuring {
		m.startMeasuring()
	}
	for !m.measuring || m.ctr.Retired-m.warmSnap.Retired < m.cfg.MeasureInstructions {
		if budget > 0 && m.cycle >= budget {
			return nil, fmt.Errorf("%w: budget %d spent at cycle %d with %d retired",
				ErrCycleBudget, budget, m.cycle, m.ctr.Retired)
		}
		if done != nil && m.cycle&(cancelCheckInterval-1) == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
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
	if m.ivSink != nil && m.cycle > m.ivStart {
		m.emitInterval() // flush the partial tail interval
	}
	res := &Result{
		Benchmark:    m.cfg.Workload.Name,
		Counters:     m.ctr.sub(m.warmSnap),
		TotalCycles:  m.cycle,
		TotalRetired: m.ctr.Retired,
		OperandGap:   m.opGap,
		Cycles:       m.stack.sub(m.warmStack),
	}
	if m.samples > 0 {
		res.IQOccupancy = float64(m.occSum) / float64(m.samples)
		res.IQRetained = float64(m.retainSum) / float64(m.samples)
	}
	for _, t := range m.threads {
		res.RetiredPerThread = append(res.RetiredPerThread, t.retired-t.warmRetired)
	}
	return res, nil
}

// startMeasuring snapshots counters at the warmup boundary.
func (m *Machine) startMeasuring() {
	m.measuring = true
	m.warmSnap = m.ctr
	m.warmStack = m.stack
	for _, t := range m.threads {
		t.warmRetired = t.retired
	}
}

// inFlight counts fetched-but-unretired instructions across threads.
func (m *Machine) inFlight() int {
	n := 0
	for _, t := range m.threads {
		n += t.window.len()
	}
	return n
}

// step advances the machine one cycle. Stage order within a cycle runs the
// back of the pipe first; all cross-stage timing is via scheduled events,
// so the order only fixes same-cycle visibility (e.g. a result completing
// in cycle c is usable by an execution in cycle c).
func (m *Machine) step() {
	m.cycle++
	m.ctr.Cycles = m.cycle
	m.reclaimDead()
	m.processEvents()
	retired := m.retire()
	if m.measuring {
		m.attributeCycle(retired)
	}
	m.swPred.Tick(m.cycle)
	m.refreshMemDep()
	m.issue()
	m.rename()
	m.fetch()
	if m.measuring {
		m.samples++
		m.occSum += uint64(m.q.Len())
		m.retainSum += uint64(m.q.Retained())
	}
	if m.ivSink != nil {
		m.sampleInterval()
	}
}

func (m *Machine) schedule(kind int, cycle int64, e event) {
	if cycle <= m.cycle {
		panic("pipeline: event scheduled in the past")
	}
	if cycle-m.cycle > m.horizon {
		panic("pipeline: event scheduled beyond the config's event horizon")
	}
	m.rings[kind].schedule(cycle, e)
}

// recycleDead queues a just-retired or just-squashed record for reuse
// ringCycles cycles after its death, once nothing in the machine can reach
// it (the argument is in snapshot.go's package comment).
func (m *Machine) recycleDead(u *uop.UOp) {
	// simlint:prealloc grows to the reclaim high-water mark once, then head-compacted and reused
	m.dead = append(m.dead, deadRecord{u: u, at: m.cycle + m.ringCycles})
}

// reclaimDead returns expired records to the pool; called once per cycle.
func (m *Machine) reclaimDead() {
	for m.deadHead < len(m.dead) && m.dead[m.deadHead].at <= m.cycle {
		m.pool.Put(m.dead[m.deadHead].u)
		m.dead[m.deadHead].u = nil
		m.deadHead++
	}
	if m.deadHead == len(m.dead) {
		m.dead = m.dead[:0]
		m.deadHead = 0
	} else if m.deadHead > 4096 && m.deadHead*2 > len(m.dead) {
		n := copy(m.dead, m.dead[m.deadHead:])
		for i := n; i < len(m.dead); i++ {
			m.dead[i].u = nil
		}
		m.dead = m.dead[:n]
		m.deadHead = 0
	}
}

func (m *Machine) processEvents() {
	for kind := 0; kind < numEvKinds; kind++ {
		for _, e := range m.rings[kind].take(m.cycle) {
			switch kind {
			case evComplete:
				m.onComplete(e)
			case evLoadResolve:
				// The two wakeup-state updates of a mis-speculated load.
				// The first firing (feedback-delay cycles after the cache
				// probe) is the miss notification: it closes the load
				// shadow by marking the result unavailable. The second
				// firing is the data return itself: only L1 hits have a
				// latency the scheduler can anticipate (that is the
				// premise of load-hit speculation), so beyond L1 the fill
				// is *signaled*, and dependents issue after it and pay the
				// full IQ-EX traversal on top of the miss latency. This is
				// why the load resolution loop punishes a long
				// issue-to-execute path.
				u := e.u
				if u.State == uop.StateSquashed || int(e.tag) != u.Issues || u.Dest == regfile.PRegInvalid {
					continue
				}
				at := m.cycle // data return: dependents may issue
				if m.cycle < u.DataReady {
					at = inf // miss notification: shadow closes
				}
				m.q.SetReady(u.Dest, at)
			case evExec:
				m.onExec(e)
			case evWriteback:
				m.onWriteback(e)
			case evIQFree:
				m.onIQFree(e)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Event handlers (back end).

// onComplete publishes an instruction's result: the value becomes
// forwardable, the instruction becomes retirable, and branches resolve.
func (m *Machine) onComplete(e event) {
	u := e.u
	if u.State == uop.StateSquashed || int(e.tag) != u.Issues {
		return
	}
	u.State = uop.StateDone
	u.CompleteCycle = m.cycle
	if u.Dest != regfile.PRegInvalid {
		m.fb.Record(u.Dest, m.cycle)
		m.schedule(evWriteback, m.fb.WritebackCycle(m.cycle), event{u: u, gen: m.regGen[u.Dest]})
	}
	if u.IsBranch() && !u.WrongPath {
		m.resolveBranch(u)
	}
}

// resolveBranch trains the predictor and, on a mispredict, performs the
// branch resolution loop's recovery: squash younger work and redirect fetch
// after the feedback delay.
func (m *Machine) resolveBranch(u *uop.UOp) {
	m.pred.Update(u.Inst.PC, u.Inst.Taken)
	if u.Inst.Taken {
		m.btb.Insert(u.Inst.PC, u.Inst.PC+64) // synthetic target
	}
	m.ctr.Branches++
	if !u.Mispredicted {
		return
	}
	m.noteMispredict(u)
	t := m.threads[u.Thread]
	m.squashYounger(t, u.Seq)
	if t.wpBranch == u {
		t.wrongPath = false
		t.wpBranch = nil
	}
	redirect := m.cycle + int64(m.cfg.BranchFBDelay)
	if redirect > t.fetchBlockedUntil {
		t.fetchBlockedUntil = redirect
	}
}

// onWriteback lands a value in the register file: the RPFT bit sets and
// the DRA caches the value in every cluster with outstanding consumers.
func (m *Machine) onWriteback(e event) {
	u := e.u
	if u.State == uop.StateSquashed {
		return
	}
	p := u.Dest
	if p == regfile.PRegInvalid || m.regGen[p] != e.gen {
		return // register reallocated since completion
	}
	m.rf.Writeback(p)
	if m.dra != nil {
		m.dra.Writeback(p, m.cycle)
	}
}

// onIQFree reclaims an issued instruction's IQ entry once the execution
// stage has confirmed (loop delay later) that it will not reissue.
func (m *Machine) onIQFree(e event) {
	// A Waiting instruction was sent back for reissue and keeps its
	// entry; Remove ignores one whose entry is already gone.
	if u := e.u; int(e.tag) == u.Issues && u.State != uop.StateWaiting {
		m.q.Remove(u)
	}
}

// onExec is the functional-unit stage: the instruction's operands are read
// (via the base path or the DRA's four paths) and execution begins. This is
// where both the load and operand resolution loops' mis-speculations are
// discovered.
func (m *Machine) onExec(e event) {
	u := e.u
	if u.State != uop.StateIssued || int(e.tag) != u.Issues {
		return
	}
	now := m.cycle

	// Validity: did every source's value actually exist when we read it?
	// A violation means this instruction issued inside some producer's
	// mis-speculation shadow (typically a load miss) and consumed garbage.
	for i, src := range u.Src {
		if i == u.NumSrc {
			break
		}
		if m.actualAt[src] > now {
			if !u.WrongPath {
				m.noteDataReissue(u)
			}
			m.q.Revert(u, now+int64(m.cfg.FeedbackDelay))
			if u.Dest != regfile.PRegInvalid {
				m.q.SetReady(u.Dest, inf)
			}
			return
		}
	}

	// DRA operand delivery: payload (pre-read), forwarding buffer, CRC,
	// or miss.
	if m.dra != nil && !m.operandsDelivered(u, now) {
		return
	}

	// Success: execution begins.
	u.ExecCycle = now
	if !u.WrongPath {
		m.ctr.ExecutedUseful++
		m.recordOperandGap(u)
	}

	lat := int64(u.Inst.Op.Latency())
	switch u.Inst.Op {
	case isa.Load:
		if s := m.forwardingStore(u); s != nil {
			// Store-to-load forwarding: the data comes from the store
			// queue at a deterministic latency, so load-hit speculation
			// holds and no cache or TLB access occurs.
			lat = int64(m.cfg.StoreForwardLat)
			u.DataReady = now + lat
			if !u.WrongPath {
				m.ctr.Loads++
				m.ctr.StoreForwards++
				if !u.MemTracked {
					u.MemTracked = true
					m.threads[u.Thread].trackLoad(u)
				}
			}
			if m.cfg.LoadPolicy == LoadStall && u.Dest != regfile.PRegInvalid {
				ready := u.DataReady
				if min := now + int64(m.cfg.FeedbackDelay+m.cfg.IQExLat); ready < min {
					ready = min
				}
				m.q.SetReady(u.Dest, ready)
			}
			break
		}
		res := m.memh.Load(u.Inst.Addr, now)
		lat = int64(res.Latency)
		if res.TLBMiss {
			lat += int64(m.cfg.TLBRefill)
			m.trapRecover(u)
		}
		u.DataReady = now + lat
		if !u.WrongPath {
			m.ctr.Loads++
			if !res.L1Hit {
				m.ctr.L1Misses++
			}
			if !res.L1Hit && !res.L2Hit {
				m.ctr.L2Misses++
			}
			if res.BankConflict {
				m.ctr.BankConflicts++
			}
			if !u.MemTracked {
				u.MemTracked = true
				m.threads[u.Thread].trackLoad(u)
			}
		}
		switch {
		case m.cfg.LoadPolicy == LoadStall:
			// No speculation: dependents wait until the IQ knows when
			// the data will be available. For hits the resolution signal
			// (feedback-delay cycles from now) carries the known timing;
			// for misses the fill itself is the signal, so dependents
			// issue at data return and pay IQ-EX on top.
			var ready int64
			if res.Hit() {
				ready = u.DataReady
				if min := now + int64(m.cfg.FeedbackDelay+m.cfg.IQExLat); ready < min {
					ready = min
				}
			} else {
				ready = u.DataReady + int64(m.cfg.IQExLat)
			}
			if u.Dest != regfile.PRegInvalid {
				m.q.SetReady(u.Dest, ready)
			}
		case !res.Hit():
			// Load-hit speculation failed: the load resolution loop
			// mis-speculated. The IQ learns of the miss after the
			// feedback delay (closing the load shadow — dependents
			// issued meanwhile consumed garbage and will reissue), but
			// the fill time itself is non-deterministic, so dependents
			// can be woken only when the data actually returns.
			if !u.WrongPath {
				m.noteLoadMisspec(u)
			}
			tag := int32(u.Issues)
			m.schedule(evLoadResolve, now+int64(m.cfg.FeedbackDelay), event{u: u, tag: tag})
			if u.DataReady > now+int64(m.cfg.FeedbackDelay) {
				m.schedule(evLoadResolve, u.DataReady, event{u: u, tag: tag})
			}
			if m.cfg.LoadPolicy == LoadRefetch {
				m.noteLoadRefetch(u)
				t := m.threads[u.Thread]
				m.squashYounger(t, u.Seq)
				if t.wpBranch != nil && t.wpBranch.State == uop.StateSquashed {
					t.wrongPath = false
					t.wpBranch = nil
				}
				redirect := now + int64(m.cfg.FeedbackDelay)
				if redirect > t.fetchBlockedUntil {
					t.fetchBlockedUntil = redirect
				}
			}
		}
	case isa.Store:
		m.memh.Store(u.Inst.Addr)
		if !u.WrongPath {
			u.ExecCycle = now // address now known to the ordering logic
			m.storeResolved(u)
		}
	default:
		// IntALU, IntMul, FPAdd, FPMul, FPDiv, Branch, Nop: no memory
		// access; the class latency computed above is the whole story.
	}

	if u.Dest != regfile.PRegInvalid {
		m.actualAt[u.Dest] = now + lat
	}
	m.schedule(evComplete, now+lat, event{u: u, tag: int32(u.Issues)})
}

// operandsDelivered classifies each source through the DRA's delivery
// paths. It returns false after initiating operand-miss recovery: the
// register file is read into the payload, the instruction reverts to
// waiting, and the front end stalls while the read occupies the file.
func (m *Machine) operandsDelivered(u *uop.UOp, now int64) bool {
	missed := false
	for i := 0; i < u.NumSrc; i++ {
		src := u.Src[i]
		switch {
		case u.PreRead[i]:
			if !u.WrongPath {
				m.ctr.OperandsRead++
				m.ctr.OperandPreRead++
			}
		case m.fb.Available(src, now):
			m.dra.ForwardHit(u.Cluster, src)
			if !u.WrongPath {
				m.ctr.OperandsRead++
				m.ctr.OperandForwarded++
			}
		case m.dra.LookupCRC(u.Cluster, src, now):
			if !u.WrongPath {
				m.ctr.OperandsRead++
				m.ctr.OperandCRC++
			}
		default:
			// Operand miss: the operand resolution loop mis-speculated.
			missed = true
			u.PreRead[i] = true // recovery reads it into the payload
			if !u.WrongPath {
				m.ctr.OperandsRead++
				m.noteOperandMiss(u)
			}
		}
	}
	if !missed {
		return true
	}
	recoverAt := now + int64(m.cfg.FeedbackDelay+m.cfg.RegReadLat)
	if !u.WrongPath {
		m.noteOperandReissue(u, recoverAt-now)
	}
	m.q.Revert(u, recoverAt)
	if u.Dest != regfile.PRegInvalid {
		m.q.SetReady(u.Dest, inf)
	}
	if recoverAt > m.frontStallUntil {
		m.noteFrontStall(u, recoverAt-m.frontStallUntil)
		m.frontStallUntil = recoverAt
	}
	return false
}

// recordOperandGap feeds the Figure 6 distribution: cycles between the
// availability of the first and second source operand (zero for
// single-operand instructions).
func (m *Machine) recordOperandGap(u *uop.UOp) {
	for i := 0; i < u.NumSrc; i++ {
		u.SrcAvail[i] = m.actualAt[u.Src[i]]
	}
	if !m.measuring {
		return
	}
	gap := 0
	if u.NumSrc == 2 {
		d := u.SrcAvail[0] - u.SrcAvail[1]
		if d < 0 {
			d = -d
		}
		gap = int(d)
	}
	m.opGap.Add(gap)
}

// trapRecover implements the memory trap loop for a data TLB miss:
// recovery is at the fetch stage, so everything younger than the load is
// flushed and refetched.
func (m *Machine) trapRecover(u *uop.UOp) {
	if u.WrongPath {
		return // a wrong-path trap is squashed work either way
	}
	m.noteTLBTrap(u)
	t := m.threads[u.Thread]
	m.squashYounger(t, u.Seq)
	if t.wpBranch != nil && t.wpBranch.State == uop.StateSquashed {
		t.wrongPath = false
		t.wpBranch = nil
	}
	redirect := m.cycle + int64(m.cfg.FeedbackDelay)
	if redirect > t.fetchBlockedUntil {
		t.fetchBlockedUntil = redirect
	}
}

// squashYounger kills every instruction of t strictly younger than seq,
// unwinding rename state youngest-first. Squashed correct-path instructions
// are queued for replay: a fetch-stage recovery refetches the same program,
// so the front end must re-deliver them.
func (m *Machine) squashYounger(t *threadState, seq uint64) {
	// Find the first surviving prefix length.
	w := &t.window
	keep := w.len()
	for keep > 0 && w.at(keep-1).Seq > seq {
		keep--
	}
	// Queue the correct-path victims in program order for replay, ahead
	// of any previously queued replay (which is even younger).
	n := 0
	for i := keep; i < w.len(); i++ {
		if !w.at(i).WrongPath {
			n++
		}
	}
	if n > 0 {
		t.replayPrepend(w, keep, n)
	}
	for i := w.len() - 1; i >= keep; i-- {
		u := w.at(i)
		m.ctr.SquashedTotal++
		if u.Issues > 0 {
			m.ctr.SquashedIssued++
		}
		if u.InIQ {
			m.q.Remove(u)
		}
		if u.Renamed && u.Inst.Dest.Valid() {
			m.rf.SquashRestore(t.id, u.Inst.Dest, u.Dest, u.OldPhy)
		}
		u.State = uop.StateSquashed
		m.recycleDead(u)
	}
	w.truncFrom(keep)
	t.untrackSquashed(seq)
	// Drop squashed entries from the decode pipe (they are the tail).
	d := &t.decode
	dkeep := d.len()
	for dkeep > 0 && d.at(dkeep-1).Seq > seq {
		dkeep--
	}
	d.truncFrom(dkeep)
}

// replayPrepend inserts the n correct-path instructions of w[keep:] (in
// program order) ahead of the queued replay. The consumed prefix
// [0, replayHead) is reused as prepend room, so in steady state — where a
// squash usually finds the replay queue drained — no allocation happens;
// the buffer only grows when a squash outsizes every previous one.
func (t *threadState) replayPrepend(w *deque, keep, n int) {
	if t.replayHead < n {
		tail := t.replay[t.replayHead:]
		need := n + len(tail)
		if cap(t.replay) < need {
			// simlint:ignore perf grows to the squash high-water mark once, then never again
			t.replayGrow(tail, n)
		} else {
			t.replay = t.replay[:need]
			copy(t.replay[n:], tail) // overlap-safe rightward move
		}
		t.replayHead = 0
	} else {
		t.replayHead -= n
	}
	j := t.replayHead
	for i := keep; i < w.len(); i++ {
		if u := w.at(i); !u.WrongPath {
			t.replay[j] = u.Inst
			j++
		}
	}
}

// replayGrow reallocates the replay buffer to hold n prepended entries
// ahead of tail, leaving [0, n) for the caller to fill.
//
// simlint:coldpath grows to the squash high-water mark, then never again
func (t *threadState) replayGrow(tail []isa.Inst, n int) {
	grown := make([]isa.Inst, n+len(tail))
	copy(grown[n:], tail)
	t.replay = grown
}

// ---------------------------------------------------------------------------
// Cycle stages (front end and scheduling).

// retire commits up to RetireWidth instructions in order per thread,
// rotating across threads for fairness, and reports how many committed.
func (m *Machine) retire() int {
	budget := m.cfg.RetireWidth
	n := len(m.threads)
	idle := 0
	for budget > 0 && idle < n {
		t := m.threads[m.rrRetire%n]
		m.rrRetire++
		u := t.window.front()
		if u == nil || u.State != uop.StateDone {
			idle++
			continue
		}
		idle = 0
		t.window.popFront()
		m.q.Retire(u)
		if m.cfg.Tracer != nil {
			m.cfg.Tracer.record(u, m.cycle)
		}
		t.untrackRetired(u)
		m.rf.Free(u.OldPhy)
		t.retired++
		m.ctr.Retired++
		m.lastRetireCycle = m.cycle
		m.recycleDead(u)
		budget--
	}
	return m.cfg.RetireWidth - budget
}

// issue selects at most one ready instruction per cluster, beginning its
// IQ-EX traversal. Destinations are announced to the wakeup state at the
// speculative latency (loads: L1 hit), which is precisely the load-hit
// speculation of the load resolution loop.
//
// The wakeup predicate is: the recovery gate (MinIssueCycle) has passed,
// every source's value is (believed) available by the time the instruction
// reaches the functional units, and the memory-dependence gate lets it go.
// The queue checks the first two; a candidate the load gate holds back
// resumes the search just past it. All three are side-effect-free, so the
// pick is the oldest waiting entry satisfying all of them.
func (m *Machine) issue() {
	w := iq.Wakeup{Cycle: m.cycle, Horizon: m.cycle + int64(m.cfg.IQExLat)}
	for c := 0; c < m.cfg.Clusters; c++ {
		var u *uop.UOp
		for next := 0; ; {
			if u, next = m.q.SelectOldestReady(c, next, &w); u == nil || !m.loadMustWait(u) {
				break
			}
		}
		if u == nil {
			continue
		}
		m.q.Issue(u)
		u.Issues++
		u.IssueCycle = m.cycle
		m.ctr.IssuedTotal++
		exec := w.Horizon // the cycle u reaches the functional units
		if u.Dest != regfile.PRegInvalid {
			ready := inf // a load under LoadStall: no speculation, wait for resolve
			if !u.IsLoad() {
				ready = exec + int64(u.Inst.Op.Latency())
			} else if m.cfg.LoadPolicy != LoadStall {
				ready = exec + int64(m.cfg.Mem.L1.HitLatency)
			}
			m.q.SetReady(u.Dest, ready)
		}
		m.schedule(evExec, exec, event{u: u, tag: int32(u.Issues)})
		m.schedule(evIQFree, exec+int64(m.cfg.FeedbackDelay+1+m.cfg.IQEvictDelay), event{u: u, tag: int32(u.Issues)})
	}
}

// rename drains the DEC-IQ pipe into the IQ: register renaming, cluster
// slotting, DRA pre-read, and queue insertion.
func (m *Machine) rename() {
	if m.cycle < m.frontStallUntil {
		m.ctr.FrontStalls++
		return
	}
	budget := m.cfg.RenameWidth
	n := len(m.threads)
	idle := 0
	for budget > 0 && idle < n {
		t := m.threads[m.rrRename%n]
		m.rrRename++
		u := t.decode.front()
		if u == nil || u.FetchCycle+int64(m.cfg.DecIQLat) > m.cycle {
			idle++
			continue
		}
		if m.q.Full() {
			m.ctr.RenameStallIQ++
			idle++
			continue
		}
		if u.Inst.Dest.Valid() && m.rf.FreeCount() == 0 {
			idle++
			continue
		}
		idle = 0
		t.decode.popFront()
		m.renameOne(t, u)
		budget--
	}
}

// renameOne performs rename, slotting, and IQ insertion for one uop.
func (m *Machine) renameOne(t *threadState, u *uop.UOp) {
	u.NumSrc = 0
	for i := 0; i < 2; i++ {
		if !u.Inst.Src[i].Valid() {
			break
		}
		u.Src[u.NumSrc] = m.rf.Lookup(t.id, u.Inst.Src[i])
		u.NumSrc++
	}
	u.Cluster = m.q.LeastLoadedCluster()
	if m.dra != nil {
		for i := 0; i < u.NumSrc; i++ {
			u.PreRead[i] = m.dra.RenameSource(u.Cluster, u.Src[i])
		}
	}
	if u.Inst.Dest.Valid() {
		newP, oldP, ok := m.rf.Rename(t.id, u.Inst.Dest)
		if !ok {
			panic("pipeline: rename ran out of registers after availability check")
		}
		u.Dest, u.OldPhy = newP, oldP
		m.regGen[newP]++
		m.q.SetReady(newP, inf)
		m.actualAt[newP] = inf
		m.fb.Invalidate(newP)
		if m.dra != nil {
			m.dra.RenameDest(newP)
		}
	}
	u.Renamed = true
	u.State = uop.StateWaiting
	u.EnterIQCycle = m.cycle
	if u.Inst.Op == isa.Store && !u.WrongPath {
		t.trackStore(u)
	}
	if !m.q.Insert(u) {
		panic("pipeline: IQ insert failed after fullness check")
	}
}

// fetch brings up to FetchWidth instructions from one thread (ICOUNT
// choice) into the DEC-IQ pipe, following the wrong path past mispredicted
// branches until they resolve.
func (m *Machine) fetch() {
	if m.inFlight() >= m.cfg.MaxInFlight {
		return
	}
	t := m.pickFetchThread()
	if t == nil {
		return
	}
	for i := 0; i < m.cfg.FetchWidth; i++ {
		var in isa.Inst
		switch {
		case t.wrongPath:
			in = t.wp.Next()
		case t.replayHead < len(t.replay):
			in = t.replay[t.replayHead]
			t.replayHead++
			if t.replayHead == len(t.replay) {
				t.replay = t.replay[:0]
				t.replayHead = 0
			}
		default:
			in = t.gen.Next()
		}
		m.seq++
		u := m.pool.Get(in, t.id, m.seq, m.cycle)
		u.WrongPath = t.wrongPath
		t.window.push(u)
		t.decode.push(u)
		m.ctr.Fetched++
		if u.WrongPath {
			m.ctr.WrongPathFetch++
		}
		stop := false
		if in.Op == isa.Branch {
			stop = m.fetchBranch(t, u)
		}
		if stop || m.inFlight() >= m.cfg.MaxInFlight {
			break
		}
	}
}

// fetchBranch runs the front end's branch handling for a just-fetched
// branch: direction prediction, wrong-path entry, and the next-address
// (BTB) loop. It reports whether the fetch group must end.
func (m *Machine) fetchBranch(t *threadState, u *uop.UOp) (stopGroup bool) {
	predTaken := m.pred.Predict(u.Inst.PC)
	if !t.wrongPath && predTaken != u.Inst.Taken {
		u.Mispredicted = true
		t.wrongPath = true
		t.wpBranch = u
	}
	if predTaken {
		// Taken-predicted branches end the fetch group; a BTB miss also
		// costs a bubble while the front end computes the target (the
		// next-address loop of Figure 2).
		if _, hit := m.btb.Lookup(u.Inst.PC); !hit {
			m.ctr.BTBBubbles++
			blocked := m.cycle + int64(m.cfg.BTBMissBubble)
			if blocked > t.fetchBlockedUntil {
				t.fetchBlockedUntil = blocked
			}
		}
		return true
	}
	return false
}

// pickFetchThread applies the ICOUNT policy: the unblocked thread with the
// fewest instructions in flight fetches this cycle.
func (m *Machine) pickFetchThread() *threadState {
	var best *threadState
	n := len(m.threads)
	for k := 0; k < n; k++ {
		t := m.threads[(m.rrFetch+k)%n]
		if t.fetchBlockedUntil > m.cycle {
			continue
		}
		if best == nil || t.window.len() < best.window.len() {
			best = t
		}
	}
	m.rrFetch++
	return best
}
