package pipeline

import (
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

// stepChecked steps m through cycles cycles, checking the invariants
// every invariantEvery cycles.
func stepChecked(t *testing.T, label string, m *Machine, cycles int) {
	t.Helper()
	checkInvariants(t, label, m)
	for i := 1; i <= cycles; i++ {
		m.step()
		if i%invariantEvery == 0 {
			checkInvariants(t, label, m)
		}
	}
}

// TestMachineInvariants steps the base machine (gcc), the DRA machine
// (apsi) and an SMT pair (m88-comp) cycle by cycle and checks the
// conservation laws as it goes: on a fresh machine, on one restored from
// a checkpoint taken after functional warming (as the sampler takes
// them), and on one restored from a checkpoint taken mid-run with the
// pipeline full.
func TestMachineInvariants(t *testing.T) {
	mk := func(bench string, dra bool) Config {
		wl, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		if dra {
			return DRAConfigRF(wl, 5)
		}
		return DefaultConfig(wl)
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"base/gcc", mk("gcc", false)},
		{"dra/apsi", mk("apsi", true)},
		{"smt/m88-comp", mk("m88-comp", false)},
	} {
		cfg := c.cfg
		t.Run(c.name, func(t *testing.T) {
			cycles := 20_000
			if testing.Short() {
				cycles = 4_000
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stepChecked(t, "fresh", m, cycles)
			mid := mustSnapshot(t, m)

			warm, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm.WarmForward(50_000)
			for _, ck := range []struct {
				label string
				data  []byte
			}{{"after warming", mustSnapshot(t, warm)}, {"mid-run", mid}} {
				r, err := Restore(cfg, ck.data)
				if err != nil {
					t.Fatal(err)
				}
				stepChecked(t, "restored "+ck.label, r, cycles)
			}
		})
	}
}
