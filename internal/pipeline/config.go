// Package pipeline is the cycle-level model of the paper's base machine
// (Section 2) and of the DRA machine built on it (Sections 4–6): an 8-wide,
// clustered, SMT, out-of-order processor with a 128-entry unified
// instruction queue, load-hit speculation with reissue recovery, a 9-cycle
// forwarding buffer, and a configurable decode→IQ (DEC-IQ) and IQ→execute
// (IQ-EX) latency split. All three of the paper's loose loops — branch
// resolution, load resolution, and (with the DRA) operand resolution — arise
// mechanically from the model.
package pipeline

import (
	"cmp"
	"fmt"
	"slices"

	"loosesim/internal/core"
	"loosesim/internal/isa"
	"loosesim/internal/mem"
	"loosesim/internal/obs"
	"loosesim/internal/regfile"
	"loosesim/internal/workload"
)

// LoadRecovery selects how the machine manages the load resolution loop
// (paper Section 2.2.2).
type LoadRecovery int

const (
	// LoadReissue speculates that loads hit and reissues the issued part
	// of the load dependency tree from the IQ on a mis-speculation — the
	// base machine's policy.
	LoadReissue LoadRecovery = iota
	// LoadRefetch speculates that loads hit but recovers at the fetch
	// stage: the pipeline behind the load is flushed and refetched. The
	// paper reports this performs significantly worse than reissue.
	LoadRefetch
	// LoadStall never speculates: dependents wait in the IQ until the
	// load's latency is known and the data is available, adding the
	// feedback and issue latency to every load-to-use.
	LoadStall
)

var loadRecoveryNames = [...]string{"reissue", "refetch", "stall"}

// String names the policy.
func (p LoadRecovery) String() string {
	if int(p) < len(loadRecoveryNames) {
		return loadRecoveryNames[p]
	}
	return fmt.Sprintf("loadrecovery(%d)", int(p))
}

// ParseLoadRecovery returns the policy that String names name.
func ParseLoadRecovery(name string) (LoadRecovery, error) {
	if i := slices.Index(loadRecoveryNames[:], name); i >= 0 {
		return LoadRecovery(i), nil
	}
	return 0, fmt.Errorf("pipeline: unknown load recovery policy %q", name)
}

// MemDepPolicy selects how the machine manages the memory dependence loop
// (Figure 2's load/store reorder trap loop): may a load issue past older
// stores whose addresses are still unknown?
type MemDepPolicy int

const (
	// MemDepStoreWait speculates by default but trains a store-wait bit
	// for loads caught violating memory order, making them wait next
	// time — the Alpha 21264 policy.
	MemDepStoreWait MemDepPolicy = iota
	// MemDepBlind always lets loads issue past unresolved stores; every
	// violation costs a trap.
	MemDepBlind
	// MemDepConservative makes every load wait until all older stores
	// have resolved their addresses; no violations, much less overlap.
	MemDepConservative
)

var memDepNames = [...]string{"storewait", "blind", "conservative"}

// String names the policy.
func (p MemDepPolicy) String() string {
	if int(p) < len(memDepNames) {
		return memDepNames[p]
	}
	return fmt.Sprintf("memdep(%d)", int(p))
}

// ParseMemDep returns the policy that String names name.
func ParseMemDep(name string) (MemDepPolicy, error) {
	if i := slices.Index(memDepNames[:], name); i >= 0 {
		return MemDepPolicy(i), nil
	}
	return 0, fmt.Errorf("pipeline: unknown memory dependence policy %q", name)
}

// PredictorKind selects the branch direction predictor.
type PredictorKind string

// Supported predictor kinds.
const (
	PredTournament PredictorKind = "tournament"
	PredBimodal    PredictorKind = "bimodal"
	PredGShare     PredictorKind = "gshare"
	PredStatic     PredictorKind = "static-taken"
	PredPerceptron PredictorKind = "perceptron"
)

// Config fully describes one simulation. It is five embedded parts and no
// field of its own, and every key naming a run is a union of whole parts:
// ConfigDigest covers Stream, Timing and Functional (a checkpoint's
// machine), serve.ConfigKey adds Run (a completed Result), none covers Host.
type Config struct {
	Stream
	Timing
	Functional
	Run
	Host
}

// Stream is the instruction stream: the programs and the seed.
type Stream struct {
	// Workload supplies one profile per hardware thread.
	Workload workload.Workload
	// Seed makes the run deterministic.
	Seed int64 // simlint:novalidate every seed is a valid run
}

// Timing is the timing machine the paper's figures sweep.
type Timing struct {
	// Machine widths.
	FetchWidth  int // instructions fetched per cycle (8)
	RenameWidth int // instructions renamed/inserted per cycle (8)
	RetireWidth int // instructions retired per cycle (8)

	// Window sizes.
	IQEntries   int // unified instruction queue capacity (128)
	Clusters    int // functional-unit clusters, 1 issue each per cycle (8)
	MaxInFlight int // maximum instructions in flight (256)
	NumPhysRegs int // physical register file size (512)

	// Pipeline latencies (cycles). The paper's headline parameters:
	// DEC-IQ is decode through IQ insertion; IQ-EX is issue through
	// operand delivery at the functional units; RegReadLat is the
	// register file access within whichever path performs it.
	DecIQLat      int
	IQExLat       int
	RegReadLat    int
	FeedbackDelay int // execute -> IQ notification (3)
	BranchFBDelay int // branch resolve -> fetch redirect (1)

	// IQEvictDelay is the extra cycles needed to clear an IQ entry after
	// it is tagged for eviction (Section 2.2.2: "Once an instruction is
	// tagged for eviction from the IQ, extra cycles are needed to clear
	// the entry").
	IQEvictDelay int

	// Forwarding buffer.
	FwdDepth int // cycles results remain forwardable (9)
	WBDelay  int // completion -> register file write (4)

	// DRA. When UseDRA is set, operands are delivered via the paper's
	// four paths (pre-read payload, forwarding buffer, CRC, miss
	// recovery) and the operand resolution loop exists.
	UseDRA bool
	DRA    core.Config

	// Load resolution loop policy.
	LoadPolicy LoadRecovery

	// Memory dependence loop policy, plus the store-wait predictor's
	// geometry (used by MemDepStoreWait).
	MemDep          MemDepPolicy
	StoreWaitSize   int   // predictor entries (power of two)
	StoreWaitClear  int64 // cycles between predictor resets
	StoreForwardLat int   // load-to-use latency when forwarding from a store (>= 1)
}

// Functional is the state functional warming trains: the memory
// hierarchy, TLB and branch predictors, and what their misses cost.
type Functional struct {
	// Memory system.
	Mem mem.HierConfig
	// TLBRefill is the extra latency added to a load that misses the TLB
	// (on top of the trap recovery at fetch).
	TLBRefill int

	// Predictor selects the branch predictor model.
	Predictor PredictorKind
	// BTBEntries sizes the branch target buffer used by the next-address
	// loop; predicted-taken branches that miss the BTB cost a fetch
	// bubble.
	BTBEntries int
	// BTBMissBubble is the fetch-stall, in cycles, for a predicted-taken
	// branch whose target is not in the BTB.
	BTBMissBubble int
}

// Run is the run's length in retired correct-path instructions (all
// threads). A checkpoint restores under any Run (the sampler's windows).
type Run struct {
	WarmupInstructions  uint64
	MeasureInstructions uint64
}

// Host is how the host bounds and watches a run: a cycle budget, a tracer
// and the observability probes (internal/obs). None of it changes a
// completed run's Result, so no key covers it: the probes are strictly
// passive, and both sinks nil makes the layer free.
type Host struct {
	// CycleBudget, when positive, bounds the run in simulated cycles:
	// RunContext aborts with ErrCycleBudget once the machine passes it
	// without finishing its measurement window. Zero means unbounded. The
	// budget is a guard rail around the run, not part of the modelled
	// machine — a run that completes within its budget is cycle-for-cycle
	// identical to the same run with no budget.
	CycleBudget int64

	// Tracer, when non-nil, receives one record per retired instruction
	// (a pipeline-viewer stream). Tracing does not perturb timing.
	Tracer *Tracer // simlint:novalidate nil and non-nil are both legal

	// SampleInterval is the interval probe's period in simulated cycles;
	// 0 selects DefaultSampleInterval when Intervals is set.
	SampleInterval int64
	// Intervals, when non-nil, receives one counter-delta record per
	// SampleInterval cycles, covering the whole run including warmup.
	Intervals obs.IntervalSink // simlint:novalidate nil disables the probe
	// Events, when non-nil, receives one record per loose-loop traversal
	// (mispredicts, load/operand reissues, traps, front-end stalls).
	Events obs.EventSink // simlint:novalidate nil disables the stream
}

// DefaultSampleInterval is the interval probe's period when
// Config.SampleInterval is left zero.
const DefaultSampleInterval = 10_000

// DefaultConfig returns the paper's base machine running the given
// workload: 8-wide SMT with a 128-entry IQ, 256 in flight, DEC-IQ = 5,
// IQ-EX = 5 with a 3-cycle register file read, 9-cycle forwarding buffer,
// and load-hit speculation with reissue recovery.
func DefaultConfig(wl workload.Workload) Config {
	return Config{Stream: Stream{Workload: wl, Seed: 1}, Timing: Timing{
		FetchWidth:  8,
		RenameWidth: 8,
		RetireWidth: 8,
		IQEntries:   128,
		Clusters:    8,
		MaxInFlight: 256,
		NumPhysRegs: 512,

		DecIQLat:      5,
		IQExLat:       5,
		RegReadLat:    3,
		FeedbackDelay: 3,
		BranchFBDelay: 1,

		IQEvictDelay: 2,

		FwdDepth: 9,
		WBDelay:  4,

		UseDRA: false,
		DRA:    core.DefaultConfig(),

		LoadPolicy: LoadReissue,

		MemDep:          MemDepStoreWait,
		StoreWaitSize:   4096,
		StoreWaitClear:  131_072,
		StoreForwardLat: 3,
	}, Functional: Functional{
		Mem:       mem.DefaultHierConfig(),
		TLBRefill: 30,

		Predictor:     PredTournament,
		BTBEntries:    1024,
		BTBMissBubble: 2,
	}, Run: Run{
		WarmupInstructions:  150_000,
		MeasureInstructions: 300_000,
	}}
}

// BaseConfigRF returns the base (non-DRA) machine for a given register file
// access latency, per the paper's Section 6 arithmetic: IQ-EX is the
// register read plus one cycle of select and one of payload access.
func BaseConfigRF(wl workload.Workload, regReadLat int) Config {
	cfg := DefaultConfig(wl)
	cfg.RegReadLat = regReadLat
	cfg.DecIQLat = 5
	cfg.IQExLat = 2 + regReadLat // 3 -> 5_5, 5 -> 5_7, 7 -> 5_9
	return cfg
}

// DRAConfigRF returns the DRA machine for a given register file access
// latency: the register read moves into the DEC-IQ path (which grows to
// cover it once it exceeds the base 5 cycles) and IQ-EX shrinks to 3 — one
// cycle each for select, payload, and the forwarding/CRC access.
func DRAConfigRF(wl workload.Workload, regReadLat int) Config {
	cfg := DefaultConfig(wl)
	cfg.UseDRA = true
	cfg.RegReadLat = regReadLat
	cfg.IQExLat = 3
	cfg.DecIQLat = 2 + regReadLat // rename results available after cycle 2
	if cfg.DecIQLat < 5 {
		cfg.DecIQLat = 5 // 3 -> 5_3, 5 -> 7_3, 7 -> 9_3
	}
	return cfg
}

// Named picks one of the paper's machines by benchmark name, with the
// knobs its figures vary. It is the one mapping onto BaseConfigRF and
// DRAConfigRF that loosim's flags and a served job's bench fields share.
// Zero values select the machine's defaults.
type Named struct {
	Bench   string
	DRA     bool
	RegRead int     // register file read latency; 0 = 3
	DecIQ   int     // 0 = derive from machine kind
	IQEx    int     // 0 = derive from machine kind
	Load    string  // reissue|refetch|stall; "" = the machine's
	MemDep  string  // storewait|blind|conservative; "" = the machine's
	Seed    int64   // 0 = the machine's
	Warmup  *uint64 // nil = the machine's
	Inst    uint64  // measured instructions; 0 = the machine's
}

// Config builds the named machine's configuration.
func (n Named) Config() (Config, error) {
	wl, err := workload.ByName(n.Bench)
	if err != nil {
		return Config{}, err
	}
	regRead := cmp.Or(n.RegRead, 3)
	var cfg Config
	if n.DRA {
		cfg = DRAConfigRF(wl, regRead)
	} else {
		cfg = BaseConfigRF(wl, regRead)
	}
	if n.DecIQ > 0 {
		cfg.DecIQLat = n.DecIQ
	}
	if n.IQEx > 0 {
		cfg.IQExLat = n.IQEx
	}
	if cfg.LoadPolicy, err = ParseLoadRecovery(cmp.Or(n.Load, cfg.LoadPolicy.String())); err != nil {
		return Config{}, err
	}
	if cfg.MemDep, err = ParseMemDep(cmp.Or(n.MemDep, cfg.MemDep.String())); err != nil {
		return Config{}, err
	}
	cfg.Seed = cmp.Or(n.Seed, cfg.Seed)
	if n.Warmup != nil {
		cfg.WarmupInstructions = *n.Warmup
	}
	cfg.MeasureInstructions = cmp.Or(n.Inst, cfg.MeasureInstructions)
	return cfg, nil
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if len(c.Workload.Threads) == 0 {
		return fmt.Errorf("pipeline: no workload threads")
	}
	for _, p := range c.Workload.Threads {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	pos := []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth}, {"RenameWidth", c.RenameWidth}, {"RetireWidth", c.RetireWidth},
		{"IQEntries", c.IQEntries}, {"Clusters", c.Clusters}, {"MaxInFlight", c.MaxInFlight},
		{"DecIQLat", c.DecIQLat}, {"IQExLat", c.IQExLat}, {"RegReadLat", c.RegReadLat},
		{"FeedbackDelay", c.FeedbackDelay}, {"BranchFBDelay", c.BranchFBDelay},
		{"FwdDepth", c.FwdDepth}, {"WBDelay", c.WBDelay},
		// A forwarded load completes StoreForwardLat cycles after it
		// executes; at 0 it would complete in the cycle it executes, which
		// the event rings cannot schedule.
		{"StoreForwardLat", c.StoreForwardLat},
	}
	for _, p := range pos {
		if p.v < 1 {
			return fmt.Errorf("pipeline: %s = %d, must be >= 1", p.name, p.v)
		}
	}
	nonneg := []struct {
		name string
		v    int
	}{
		{"IQEvictDelay", c.IQEvictDelay}, {"TLBRefill", c.TLBRefill}, {"BTBMissBubble", c.BTBMissBubble},
	}
	for _, p := range nonneg {
		if p.v < 0 {
			return fmt.Errorf("pipeline: %s = %d, must be >= 0", p.name, p.v)
		}
	}
	if c.NumPhysRegs < c.MaxInFlight {
		return fmt.Errorf("pipeline: %d physical registers cannot cover %d in flight", c.NumPhysRegs, c.MaxInFlight)
	}
	if need := regfile.MinPhysRegs(len(c.Workload.Threads)); c.NumPhysRegs < need {
		return fmt.Errorf("pipeline: %d physical registers cannot back %d threads, need >= %d", c.NumPhysRegs, len(c.Workload.Threads), need)
	}
	if c.MeasureInstructions == 0 {
		return fmt.Errorf("pipeline: MeasureInstructions must be > 0")
	}
	if c.SampleInterval < 0 {
		return fmt.Errorf("pipeline: SampleInterval = %d, must be >= 0", c.SampleInterval)
	}
	if c.CycleBudget < 0 {
		return fmt.Errorf("pipeline: CycleBudget = %d, must be >= 0", c.CycleBudget)
	}
	if c.WarmupInstructions > 1<<40 {
		return fmt.Errorf("pipeline: WarmupInstructions = %d, implausibly large", c.WarmupInstructions)
	}
	if int(c.LoadPolicy) < 0 || int(c.LoadPolicy) >= len(loadRecoveryNames) {
		return fmt.Errorf("pipeline: unknown load recovery policy %d", int(c.LoadPolicy))
	}
	if int(c.MemDep) < 0 || int(c.MemDep) >= len(memDepNames) {
		return fmt.Errorf("pipeline: unknown memory dependence policy %d", int(c.MemDep))
	}
	// The store-wait predictor is constructed for every policy (it is
	// simply untrained outside MemDepStoreWait), so its geometry must
	// always be legal.
	if c.StoreWaitSize < 1 || c.StoreWaitSize&(c.StoreWaitSize-1) != 0 {
		return fmt.Errorf("pipeline: StoreWaitSize = %d, must be a power of two", c.StoreWaitSize)
	}
	if c.StoreWaitClear < 1 {
		return fmt.Errorf("pipeline: StoreWaitClear = %d, must be >= 1", c.StoreWaitClear)
	}
	switch c.Predictor {
	case PredTournament, PredBimodal, PredGShare, PredStatic, PredPerceptron, "":
	default:
		return fmt.Errorf("pipeline: unknown predictor kind %q", c.Predictor)
	}
	if c.BTBEntries < 1 || c.BTBEntries&(c.BTBEntries-1) != 0 {
		return fmt.Errorf("pipeline: BTBEntries = %d, must be a power of two", c.BTBEntries)
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if c.UseDRA {
		if err := c.DRA.Validate(); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		if c.DRA.Clusters != c.Clusters {
			return fmt.Errorf("pipeline: DRA clusters (%d) must match machine clusters (%d)", c.DRA.Clusters, c.Clusters)
		}
	}
	if h := c.eventHorizon(); h > maxEventHorizon {
		return fmt.Errorf("pipeline: event horizon of %d cycles, must be <= %d: it is the longest of "+
			"IQExLat+FeedbackDelay+1+IQEvictDelay (%d), "+
			"max(Mem.L1.HitLatency, Mem.L2.HitLatency, Mem.MemLatency)+Mem.BankConflictPenalty+TLBRefill (%d), "+
			"StoreForwardLat (%d), WBDelay (%d) and the longest op latency (%d)",
			h, maxEventHorizon, c.issueHorizon(), c.loadHorizon(), c.StoreForwardLat, c.WBDelay, maxOpLatency())
	}
	return nil
}

// maxEventHorizon bounds a config's event horizon. The event rings get
// the smallest power of two above the horizon, so the largest ring is
// 1024 cycles.
const maxEventHorizon = 1023

// eventHorizon is the farthest ahead, in cycles, that the machine can
// schedule an event: the longest delay of the five schedule sites. From
// issue, evExec lands IQExLat cycles out and evIQFree FeedbackDelay+1+
// IQEvictDelay after that (issueHorizon). From execute, evComplete lands
// an op latency, StoreForwardLat or a cache load's latency out
// (loadHorizon), and evLoadResolve FeedbackDelay or the load's latency
// out. From completion, evWriteback lands WBDelay out. The machine sizes
// its event rings and the uop recycle delay from it, and Validate bounds
// it.
//
// It reads only fields Validate has already checked to be non-negative.
// Each is capped at 1<<20 cycles before any sum, so no field can wrap the
// horizon back under the bound.
func (c *Config) eventHorizon() int {
	return max(c.issueHorizon(), c.loadHorizon(), capDelay(c.StoreForwardLat), capDelay(c.WBDelay), maxOpLatency())
}

// issueHorizon is how far past its issue cycle an instruction's last
// event lands: the evIQFree that releases its IQ entry.
func (c *Config) issueHorizon() int {
	return capDelay(c.IQExLat) + capDelay(c.FeedbackDelay) + 1 + capDelay(c.IQEvictDelay)
}

// loadHorizon is the longest load-to-use latency a cache load can see: the
// slowest level, a bank conflict, and a TLB refill.
func (c *Config) loadHorizon() int {
	m := c.Mem
	return max(capDelay(m.L1.HitLatency), capDelay(m.L2.HitLatency), capDelay(m.MemLatency)) +
		capDelay(m.BankConflictPenalty) + capDelay(c.TLBRefill)
}

// capDelay caps one delay for eventHorizon's sums.
func capDelay(v int) int { return min(v, 1<<20) }

// maxOpLatency is the longest fixed execution latency of any op class.
func maxOpLatency() int {
	n := 0
	for op := 0; op < isa.NumOpClasses; op++ {
		n = max(n, isa.OpClass(op).Latency())
	}
	return n
}
