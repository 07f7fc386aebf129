package pipeline

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"loosesim/internal/isa"
	"loosesim/internal/workload"
)

// invariantEvery is how often, in cycles, TestMachineInvariants checks
// the machine's conservation laws.
const invariantEvery = 64

// checkInvariants fails unless m satisfies the laws every cycle boundary
// must: each fetched instruction has retired, been squashed, or is still
// in flight; the IQ holds no more than its entries; no more than
// MaxInFlight instructions are in flight; every physical register is
// free, an architectural mapping, or the destination of a renamed
// in-flight instruction; and every classified operand was delivered by
// exactly one path (pre-read, forwarding buffer, CRC) or missed.
func checkInvariants(t *testing.T, label string, m *Machine) {
	t.Helper()
	c := m.ctr
	if inflight := uint64(m.inFlight()); c.Fetched != c.Retired+c.SquashedTotal+inflight {
		t.Fatalf("%s, cycle %d: fetched %d != retired %d + squashed %d + in flight %d",
			label, m.cycle, c.Fetched, c.Retired, c.SquashedTotal, inflight)
	}
	if n := m.q.Len(); n > m.cfg.IQEntries {
		t.Fatalf("%s, cycle %d: IQ holds %d entries, has %d", label, m.cycle, n, m.cfg.IQEntries)
	}
	if n := m.inFlight(); n > m.cfg.MaxInFlight {
		t.Fatalf("%s, cycle %d: %d in flight, limit %d", label, m.cycle, n, m.cfg.MaxInFlight)
	}
	renamed := 0
	for _, th := range m.threads {
		for i := 0; i < th.window.len(); i++ {
			if u := th.window.at(i); u.Renamed && u.Inst.Dest.Valid() {
				renamed++
			}
		}
	}
	mapped := len(m.threads) * isa.NumArchRegs
	if free := m.rf.FreeCount(); free != m.cfg.NumPhysRegs-mapped-renamed {
		t.Fatalf("%s, cycle %d: %d free registers != %d physical - %d mapped - %d renamed in flight",
			label, m.cycle, free, m.cfg.NumPhysRegs, mapped, renamed)
	}
	if got := c.OperandPreRead + c.OperandForwarded + c.OperandCRC + c.OperandMisses; c.OperandsRead != got {
		t.Fatalf("%s, cycle %d: %d operands read != %d pre-read + %d forwarded + %d CRC + %d missed",
			label, m.cycle, c.OperandsRead, c.OperandPreRead, c.OperandForwarded, c.OperandCRC, c.OperandMisses)
	}
}

// streamLaw is the fifth law, read through a Tracer: each thread retires
// exactly its correct-path program, in order, with nothing skipped or
// repeated. It holds one fresh generator per thread, advanced to the
// machine's next instruction to retire, and compares the (op, PC) of every
// trace record against it. A recycled uop record that is still reachable
// when it is reused corrupts correct-path work, and shows up here.
type streamLaw struct {
	m     *Machine
	gens  []*workload.Generator
	base  []uint64 // each thread's retired count when the law attached
	count []uint64 // trace records seen per thread since then
	err   error    // first violation
}

// newStreamLaw returns the law and a config that traces into it; build
// the machine from that config, then attach the law to it.
func newStreamLaw(cfg Config) (*streamLaw, Config) {
	l := &streamLaw{}
	cfg.Tracer = NewTracer(l, 0)
	return l, cfg
}

// attach positions each thread's generator at m's next retirement: the
// generator's output so far, less the correct-path instructions still in
// the window and those queued for replay.
func (l *streamLaw) attach(m *Machine) {
	l.m = m
	for i, th := range m.threads {
		g := workload.NewGenerator(m.cfg.Workload.Threads[i], m.cfg.Seed+int64(i)*7919, uint64(i)<<33)
		pending := uint64(len(th.replay) - th.replayHead)
		for j := 0; j < th.window.len(); j++ {
			if !th.window.at(j).WrongPath {
				pending++
			}
		}
		for n := th.gen.Generated() - pending; n > 0; n-- {
			g.Next()
		}
		l.gens = append(l.gens, g)
		l.base = append(l.base, th.retired)
		l.count = append(l.count, 0)
	}
}

// Write takes one trace line (the Tracer writes each record whole).
func (l *streamLaw) Write(p []byte) (int, error) {
	f := strings.Fields(string(p))
	if l.err != nil || l.m == nil || len(f) < 4 || f[0] == "#" {
		return len(p), nil
	}
	th, err1 := strconv.Atoi(f[1])
	pc, err2 := strconv.ParseUint(f[3], 0, 64)
	if err1 != nil || err2 != nil || th < 0 || th >= len(l.gens) {
		l.err = fmt.Errorf("unparseable trace record %q", p)
		return len(p), nil
	}
	want := l.gens[th].Next()
	if f[2] != want.Op.String() || pc != want.PC {
		l.err = fmt.Errorf("thread %d retired instruction %d as %s %#x, program has %s %#x",
			th, l.base[th]+l.count[th], f[2], pc, want.Op, want.PC)
	}
	l.count[th]++
	return len(p), nil
}

// check fails t on the first stream violation, or when the trace and the
// machine's own retire counts disagree.
func (l *streamLaw) check(t *testing.T, label string) {
	t.Helper()
	if l.err != nil {
		t.Fatalf("%s, cycle %d: %v", label, l.m.cycle, l.err)
	}
	for i, th := range l.m.threads {
		if got := l.base[i] + l.count[i]; got != th.retired {
			t.Fatalf("%s, cycle %d: thread %d traced %d retirements, retired %d",
				label, l.m.cycle, i, got, th.retired)
		}
	}
}

// stepChecked steps m through cycles cycles, checking the invariants and
// the retired stream every invariantEvery cycles.
func stepChecked(t *testing.T, label string, m *Machine, law *streamLaw, cycles int) {
	t.Helper()
	checkInvariants(t, label, m)
	for i := 1; i <= cycles; i++ {
		m.step()
		if i%invariantEvery == 0 {
			checkInvariants(t, label, m)
			law.check(t, label)
		}
	}
	law.check(t, label)
}

// lawGrid is the base machine on gcc plus the full-run grid of
// TestResultDigestsGolden: both non-default memory-dependence policies,
// the refetch and stall load policies on an integer and an FP code, the
// DRA at RF 3/5/7, an SMT pair on each machine, and the 2-cluster
// 32-entry IQ on each machine.
func lawGrid(t *testing.T) []struct {
	name string
	cfg  Config
} {
	mk := func(bench string, dra bool, regRead int, tweak func(*Config)) Config {
		wl, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := BaseConfigRF(wl, regRead)
		if dra {
			cfg = DRAConfigRF(wl, regRead)
		}
		if tweak != nil {
			tweak(&cfg)
		}
		return cfg
	}
	blind := func(c *Config) { c.MemDep = MemDepBlind }
	conservative := func(c *Config) { c.MemDep = MemDepConservative }
	refetch := func(c *Config) { c.LoadPolicy = LoadRefetch }
	stall := func(c *Config) { c.LoadPolicy = LoadStall }
	smallIQ := func(c *Config) { c.IQEntries, c.Clusters, c.DRA.Clusters = 32, 2, 2 }
	return []struct {
		name string
		cfg  Config
	}{
		{"base/gcc", mk("gcc", false, 3, nil)},
		{"memdep-blind/gcc", mk("gcc", false, 3, blind)},
		{"memdep-conservative/gcc", mk("gcc", false, 3, conservative)},
		{"load-refetch/gcc", mk("gcc", false, 3, refetch)},
		{"load-refetch/swim", mk("swim", false, 3, refetch)},
		{"load-stall/gcc", mk("gcc", false, 3, stall)},
		{"load-stall/swim", mk("swim", false, 3, stall)},
		{"dra-rf3/apsi", mk("apsi", true, 3, nil)},
		{"dra-rf5/apsi", mk("apsi", true, 5, nil)},
		{"dra-rf7/swim", mk("swim", true, 7, nil)},
		{"smt/m88-comp", mk("m88-comp", false, 3, nil)},
		{"smt-dra/apsi-swim", mk("apsi-swim", true, 5, nil)},
		{"iq32x2/gcc", mk("gcc", false, 3, smallIQ)},
		{"iq32x2-dra/turb3d", mk("turb3d", true, 5, smallIQ)},
	}
}

// TestMachineInvariants steps every machine of lawGrid cycle by cycle and
// checks the conservation laws and the retired stream as it goes: on a
// fresh machine, on one restored from a checkpoint taken after functional
// warming (as the sampler takes them), and on one restored from a
// checkpoint taken mid-run with the pipeline full.
func TestMachineInvariants(t *testing.T) {
	cycles := 20_000
	if testing.Short() {
		cycles = 4_000
	}
	for _, c := range lawGrid(t) {
		law, cfg := newStreamLaw(c.cfg)
		t.Run(c.name, func(t *testing.T) {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			law.attach(m)
			stepChecked(t, "fresh", m, law, cycles)
			mid := mustSnapshot(t, m)

			warm, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm.WarmForward(50_000)
			for _, ck := range []struct {
				label string
				data  []byte
			}{{"after warming", mustSnapshot(t, warm)}, {"mid-run", mid}} {
				law, cfg := newStreamLaw(c.cfg)
				r, err := Restore(cfg, ck.data)
				if err != nil {
					t.Fatal(err)
				}
				law.attach(r)
				stepChecked(t, "restored "+ck.label, r, law, cycles)
			}
		})
	}
}
