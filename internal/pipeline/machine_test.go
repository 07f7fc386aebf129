package pipeline

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"loosesim/internal/obs"
	"loosesim/internal/workload"
)

// quickCfg returns a short-run configuration for the named benchmark.
func quickCfg(t *testing.T, bench string) Config {
	t.Helper()
	wl, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(wl)
	cfg.WarmupInstructions = 20_000
	cfg.MeasureInstructions = 40_000
	return cfg
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

func TestConfigValidation(t *testing.T) {
	wl, _ := workload.ByName("gcc")
	cases := []func(*Config){
		func(c *Config) { c.Workload.Threads = nil },
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.IQEntries = 0 },
		func(c *Config) { c.DecIQLat = 0 },
		func(c *Config) { c.IQExLat = -1 },
		func(c *Config) { c.NumPhysRegs = 100 },
		func(c *Config) { c.NumPhysRegs, c.MaxInFlight = 64, 64 },
		func(c *Config) { c.MeasureInstructions = 0 },
		func(c *Config) { c.UseDRA = true; c.DRA.Clusters = 4 },
		func(c *Config) { c.IQEvictDelay = -1 },
		func(c *Config) { c.StoreForwardLat = -1 },
		func(c *Config) { c.StoreForwardLat = 0 },
		func(c *Config) { c.TLBRefill = -1 },
		func(c *Config) { c.BTBMissBubble = -1 },
		func(c *Config) { c.LoadPolicy = LoadRecovery(9) },
		func(c *Config) { c.MemDep = MemDepPolicy(9) },
		func(c *Config) { c.StoreWaitSize = 3000 },
		func(c *Config) { c.StoreWaitClear = 0 },
		func(c *Config) { c.Predictor = PredictorKind("bogus") },
		func(c *Config) { c.BTBEntries = 1000 },
		func(c *Config) { c.Mem.L1.LineBytes = 48 },
		func(c *Config) { c.UseDRA = true; c.DRA.CounterBits = 0 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig(wl)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected a configuration error", i)
		}
	}
}

// TestValidateBoundsEventHorizon walks each field that feeds the event
// horizon (Config.eventHorizon) up to the largest value the kernel can
// schedule on the base machine: there a short run completes, and one
// cycle more is a Validate error, not a panic mid-run. The limits are
// worked out by hand from DefaultConfig, so they also pin the horizon
// formula: IQ-EX 5 + feedback 3 + 1 + evict 2 = 11 for the issue sites,
// memory 150 + bank conflict 1 + TLB refill 30 = 181 for a load.
func TestValidateBoundsEventHorizon(t *testing.T) {
	wl, err := workload.ByName("hydro")
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig(wl)
	if h := base.eventHorizon(); h != 181 {
		t.Fatalf("base machine event horizon = %d, want 181", h)
	}
	m, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if m.ringCycles != 256 {
		t.Fatalf("base machine rings are %d cycles, want 256", m.ringCycles)
	}
	for _, c := range []struct {
		field string
		set   func(*Config, int)
		max   int
	}{
		{"IQExLat", func(c *Config, v int) { c.IQExLat = v }, 1023 - 3 - 1 - 2},
		{"Mem.MemLatency", func(c *Config, v int) { c.Mem.MemLatency = v }, 1023 - 1 - 30},
		{"TLBRefill", func(c *Config, v int) { c.TLBRefill = v }, 1023 - 150 - 1},
		{"WBDelay", func(c *Config, v int) { c.WBDelay = v }, 1023},
		{"FeedbackDelay", func(c *Config, v int) { c.FeedbackDelay = v }, 1023 - 5 - 1 - 2},
		{"IQEvictDelay", func(c *Config, v int) { c.IQEvictDelay = v }, 1023 - 5 - 3 - 1},
	} {
		t.Run(c.field, func(t *testing.T) {
			cfg := base
			cfg.WarmupInstructions, cfg.MeasureInstructions = 0, 1_000
			c.set(&cfg, c.max)
			if h := cfg.eventHorizon(); h != maxEventHorizon {
				t.Fatalf("%s = %d: horizon %d, want %d", c.field, c.max, h, maxEventHorizon)
			}
			if res := run(t, cfg); res.Counters.Retired < cfg.MeasureInstructions {
				t.Fatalf("%s = %d: retired %d of %d", c.field, c.max, res.Counters.Retired, cfg.MeasureInstructions)
			}
			c.set(&cfg, c.max+1)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("%s = %d: Validate accepted a horizon past %d", c.field, c.max+1, maxEventHorizon)
			}
			if msg := err.Error(); !strings.Contains(msg, "event horizon of 1024 cycles") {
				t.Fatalf("%s = %d: error does not name the horizon: %v", c.field, c.max+1, err)
			}
		})
	}
	// A huge field must not wrap the horizon's sums back under the bound.
	cfg := base
	cfg.Mem.MemLatency, cfg.TLBRefill = math.MaxInt, math.MaxInt
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted MemLatency = TLBRefill = MaxInt")
	}
}

func TestRunRetiresExactBudget(t *testing.T) {
	cfg := quickCfg(t, "gcc")
	res := run(t, cfg)
	// Retirement happens up to RetireWidth per cycle, so the run may
	// overshoot by at most a retire group.
	if res.Counters.Retired < cfg.MeasureInstructions ||
		res.Counters.Retired >= cfg.MeasureInstructions+uint64(cfg.RetireWidth) {
		t.Errorf("retired %d, want [%d, %d)", res.Counters.Retired,
			cfg.MeasureInstructions, cfg.MeasureInstructions+uint64(cfg.RetireWidth))
	}
	if res.Counters.Cycles <= 0 {
		t.Error("no cycles recorded")
	}
	if ipc := res.IPC(); ipc <= 0.1 || ipc > 8 {
		t.Errorf("IPC %v outside sane bounds (0.1, 8]", ipc)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quickCfg(t, "comp")
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Counters != b.Counters {
		t.Errorf("same config diverged:\n%+v\n%+v", a.Counters, b.Counters)
	}

	// Same config with sampler and event stream enabled: the Counters must
	// be byte-identical to the unprobed run, and two probed runs must
	// produce byte-identical observability streams.
	probed := func() (*Result, string, string) {
		var evBuf, ivBuf bytes.Buffer
		c := cfg
		events := obs.NewRingWriter(&evBuf, 0)
		intervals := obs.NewIntervalCSV(&ivBuf)
		c.Events = events
		c.Intervals = intervals
		c.SampleInterval = 2_500
		res := run(t, c)
		if err := events.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := intervals.Err(); err != nil {
			t.Fatal(err)
		}
		return res, evBuf.String(), ivBuf.String()
	}
	p1, ev1, iv1 := probed()
	p2, ev2, iv2 := probed()
	if a.Counters != p1.Counters {
		t.Errorf("observability perturbed the run:\n%+v\n%+v", a.Counters, p1.Counters)
	}
	if p1.Counters != p2.Counters {
		t.Errorf("probed runs diverged:\n%+v\n%+v", p1.Counters, p2.Counters)
	}
	if ev1 != ev2 {
		t.Error("event streams of identical runs differ")
	}
	if iv1 != iv2 {
		t.Error("interval streams of identical runs differ")
	}

	cfg.Seed = 99
	c := run(t, cfg)
	if a.Counters.Cycles == c.Counters.Cycles && a.Counters.Mispredicts == c.Counters.Mispredicts {
		t.Error("different seeds produced identical cycle/mispredict counts")
	}
}

func TestLoopDelayArithmetic(t *testing.T) {
	// Paper Section 2.2.2: the base machine's load resolution loop delay
	// is 8 cycles — IQ-EX (5) plus feedback (3).
	wl, _ := workload.ByName("gcc")
	cfg := DefaultConfig(wl)
	if got := cfg.IQExLat + cfg.FeedbackDelay; got != 8 {
		t.Errorf("base load loop delay = %d, want 8", got)
	}
	// Section 6: configuration arithmetic for base and DRA machines.
	for _, c := range []struct {
		rf, baseDec, baseIQ, draDec, draIQ int
	}{{3, 5, 5, 5, 3}, {5, 5, 7, 7, 3}, {7, 5, 9, 9, 3}} {
		b := BaseConfigRF(wl, c.rf)
		if b.DecIQLat != c.baseDec || b.IQExLat != c.baseIQ {
			t.Errorf("BaseConfigRF(%d) = %d_%d, want %d_%d", c.rf, b.DecIQLat, b.IQExLat, c.baseDec, c.baseIQ)
		}
		d := DRAConfigRF(wl, c.rf)
		if d.DecIQLat != c.draDec || d.IQExLat != c.draIQ {
			t.Errorf("DRAConfigRF(%d) = %d_%d, want %d_%d", c.rf, d.DecIQLat, d.IQExLat, c.draDec, c.draIQ)
		}
		if !d.UseDRA || b.UseDRA {
			t.Error("UseDRA flags wrong")
		}
	}
}

func TestLongerPipelineIsSlower(t *testing.T) {
	cfg := quickCfg(t, "gcc")
	cfg.DecIQLat, cfg.IQExLat = 3, 3
	short := run(t, cfg)
	cfg.DecIQLat, cfg.IQExLat = 9, 9
	long := run(t, cfg)
	if long.IPC() >= short.IPC() {
		t.Errorf("18-cycle pipe (%.3f) must be slower than 6-cycle (%.3f)", long.IPC(), short.IPC())
	}
	// The loss should be material for a branchy benchmark (paper: ~20%).
	if ratio := long.IPC() / short.IPC(); ratio > 0.95 {
		t.Errorf("pipeline-length loss only %.1f%%; expected well over 5%%", 100*(1-ratio))
	}
}

func TestIQExShorterBeatsDecIQShorter(t *testing.T) {
	// Figure 5's headline: for a load-bound benchmark, 9_3 beats 3_9.
	cfg := quickCfg(t, "swim")
	cfg.DecIQLat, cfg.IQExLat = 3, 9
	deep := run(t, cfg)
	cfg.DecIQLat, cfg.IQExLat = 9, 3
	shallow := run(t, cfg)
	if shallow.IPC() <= deep.IPC() {
		t.Errorf("9_3 (%.3f) must beat 3_9 (%.3f) on swim", shallow.IPC(), deep.IPC())
	}
}

func TestBranchStatsSane(t *testing.T) {
	res := run(t, quickCfg(t, "gcc"))
	c := res.Counters
	if c.Branches == 0 {
		t.Fatal("no branches resolved")
	}
	if c.Mispredicts == 0 || c.Mispredicts > c.Branches {
		t.Errorf("mispredicts %d outside (0, %d]", c.Mispredicts, c.Branches)
	}
	r := res.MispredictRate()
	if r < 0.02 || r > 0.30 {
		t.Errorf("gcc mispredict rate %.3f outside plausible band", r)
	}
	if c.SquashedTotal == 0 || c.WrongPathFetch == 0 {
		t.Error("mispredicts must cause squashes and wrong-path fetch")
	}
}

func TestLoadLoopStats(t *testing.T) {
	res := run(t, quickCfg(t, "swim"))
	c := res.Counters
	if c.Loads == 0 || c.L1Misses == 0 {
		t.Fatal("swim must have loads and L1 misses")
	}
	if c.L1Misses > c.Loads {
		t.Error("more L1 misses than loads")
	}
	if c.L2Misses > c.L1Misses {
		t.Error("more L2 misses than L1 misses")
	}
	if c.LoadMisspecs == 0 || c.DataReissues == 0 {
		t.Error("load-hit speculation must mis-speculate and reissue on swim")
	}
	// Every mis-speculation is a miss or a bank conflict.
	if c.LoadMisspecs > c.L1Misses+c.BankConflicts {
		t.Errorf("misspecs %d exceed misses+conflicts %d", c.LoadMisspecs, c.L1Misses+c.BankConflicts)
	}
}

func TestMemoryBoundInsensitiveToPipeline(t *testing.T) {
	// hydro (L2-missing) must be less pipeline-length sensitive than gcc.
	loss := func(bench string) float64 {
		cfg := quickCfg(t, bench)
		cfg.DecIQLat, cfg.IQExLat = 3, 3
		short := run(t, cfg)
		cfg.DecIQLat, cfg.IQExLat = 9, 9
		long := run(t, cfg)
		return 1 - long.IPC()/short.IPC()
	}
	if lh, lg := loss("hydro"), loss("gcc"); lh >= lg {
		t.Errorf("hydro loss %.3f should be below gcc loss %.3f", lh, lg)
	}
}

func TestLoadRecoveryPolicyOrdering(t *testing.T) {
	// Section 2.2.2: reissue > refetch, and reissue > stall, for a
	// load-miss-heavy benchmark.
	ipc := func(p LoadRecovery) float64 {
		cfg := quickCfg(t, "swim")
		cfg.LoadPolicy = p
		return run(t, cfg).IPC()
	}
	re, rf, st := ipc(LoadReissue), ipc(LoadRefetch), ipc(LoadStall)
	if re <= rf {
		t.Errorf("reissue (%.3f) must beat refetch (%.3f)", re, rf)
	}
	if re <= st {
		t.Errorf("reissue (%.3f) must beat stall (%.3f)", re, st)
	}
}

func TestTLBTrapsOnTurb3d(t *testing.T) {
	turb := run(t, quickCfg(t, "turb3d"))
	gcc := run(t, quickCfg(t, "gcc"))
	if turb.Counters.TLBMissTraps == 0 {
		t.Error("turb3d must take TLB traps")
	}
	if gcc.Counters.TLBMissTraps > turb.Counters.TLBMissTraps {
		t.Error("gcc must trap less than turb3d")
	}
}

func TestSMTRunsBothThreads(t *testing.T) {
	res := run(t, quickCfg(t, "apsi-swim"))
	if len(res.RetiredPerThread) != 2 {
		t.Fatalf("thread count = %d, want 2", len(res.RetiredPerThread))
	}
	total := res.RetiredPerThread[0] + res.RetiredPerThread[1]
	if total != res.Counters.Retired {
		t.Errorf("per-thread retired %d != total %d", total, res.Counters.Retired)
	}
	for i, r := range res.RetiredPerThread {
		if r < res.Counters.Retired/10 {
			t.Errorf("thread %d starved: %d of %d", i, r, res.Counters.Retired)
		}
	}
}

func TestSMTShieldsMisspeculation(t *testing.T) {
	// Section 3.1: multi-threaded pipeline-length impact is generally less
	// than the worst component program's.
	loss := func(bench string) float64 {
		cfg := quickCfg(t, bench)
		cfg.DecIQLat, cfg.IQExLat = 3, 3
		short := run(t, cfg)
		cfg.DecIQLat, cfg.IQExLat = 9, 9
		long := run(t, cfg)
		return 1 - long.IPC()/short.IPC()
	}
	pair := loss("go-su2cor")
	worst := math.Max(loss("go"), loss("su2cor"))
	if pair >= worst+0.03 {
		t.Errorf("SMT pair loss %.3f should not clearly exceed worst component %.3f", pair, worst)
	}
}

func TestOperandGapDistribution(t *testing.T) {
	res := run(t, quickCfg(t, "turb3d"))
	g := res.OperandGap
	if g.Count() == 0 {
		t.Fatal("no operand gaps recorded")
	}
	// Figure 6's shape: a large spike at zero (single-operand and
	// same-cycle operands), with a long tail.
	if g.Fraction(0) < 0.2 {
		t.Errorf("zero-gap fraction %.3f implausibly small", g.Fraction(0))
	}
	if g.Fraction(9) > 0.99 {
		t.Error("gap distribution has no tail beyond the forwarding depth")
	}
}

func TestIQPressureGrowsWithIQEx(t *testing.T) {
	cfg := quickCfg(t, "swim")
	cfg.IQExLat = 3
	shallow := run(t, cfg)
	cfg.IQExLat = 9
	deep := run(t, cfg)
	if deep.IQRetained <= shallow.IQRetained {
		t.Errorf("issued-retained population must grow with IQ-EX: %.1f vs %.1f",
			deep.IQRetained, shallow.IQRetained)
	}
}

func TestWrongPathDoesNotRetire(t *testing.T) {
	res := run(t, quickCfg(t, "go"))
	c := res.Counters
	if c.WrongPathFetch == 0 {
		t.Fatal("go must fetch wrong-path work")
	}
	// All retired instructions are correct-path: retired == measure budget
	// (checked elsewhere); here check useless work accounting exists.
	if res.UselessWork() == 0 {
		t.Error("useless work must be non-zero on a mispredict-heavy benchmark")
	}
}

func TestCountersSubtraction(t *testing.T) {
	a := Counters{Cycles: 100, Retired: 50, Branches: 10}
	b := Counters{Cycles: 40, Retired: 20, Branches: 4}
	d := a.sub(b)
	if d.Cycles != 60 || d.Retired != 30 || d.Branches != 6 {
		t.Errorf("sub wrong: %+v", d)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := &Result{Counters: Counters{
		Cycles: 100, Retired: 250, Branches: 10, Mispredicts: 2,
		Loads: 50, L1Misses: 5,
		OperandsRead: 200, OperandPreRead: 60, OperandForwarded: 120, OperandCRC: 18, OperandMisses: 2,
	}}
	if r.IPC() != 2.5 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.MispredictRate() != 0.2 {
		t.Errorf("mispredict rate = %v", r.MispredictRate())
	}
	if r.L1MissRate() != 0.1 {
		t.Errorf("L1 miss rate = %v", r.L1MissRate())
	}
	if r.OperandMissRate() != 0.01 {
		t.Errorf("operand miss rate = %v", r.OperandMissRate())
	}
	pr, fw, crc, miss := r.OperandShare()
	if math.Abs(pr+fw+crc+miss-1.0) > 1e-12 {
		t.Errorf("operand shares must sum to 1, got %v", pr+fw+crc+miss)
	}
	empty := &Result{}
	if empty.IPC() != 0 || empty.MispredictRate() != 0 || empty.L1MissRate() != 0 || empty.OperandMissRate() != 0 {
		t.Error("zero-division guards failed")
	}
}

func TestString(t *testing.T) {
	res := run(t, quickCfg(t, "m88"))
	if res.String() == "" {
		t.Error("empty result string")
	}
	for _, p := range []LoadRecovery{LoadReissue, LoadRefetch, LoadStall, LoadRecovery(9)} {
		if p.String() == "" {
			t.Error("empty policy string")
		}
	}
}
