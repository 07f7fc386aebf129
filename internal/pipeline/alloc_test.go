package pipeline

import "testing"

// machineAllocBudget is the committed bound on allocations per
// BenchmarkMachine run: construction plus a full warmup+measurement run of
// the base machine. The per-cycle path allocates nothing once the uop
// pool, the event-ring slabs and the tracking lists reach their
// high-water marks, so the count is fixed by construction and does not
// depend on the host. Lower it when a change saves allocations; a change
// that needs more must say why.
const machineAllocBudget = 181

// TestMachineAllocBudget is the allocation gate: BenchmarkMachine's
// configuration must allocate no more than machineAllocBudget times per
// run. The race detector allocates on its own account, so the gate is
// skipped under -race.
func TestMachineAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := machineBenchConfig(t)
	allocs := testing.AllocsPerRun(3, func() {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res := m.Run(); res.Counters.Retired == 0 {
			t.Fatal("no instructions retired")
		}
	})
	if allocs > machineAllocBudget {
		t.Errorf("BenchmarkMachine run allocates %.0f times, budget %d", allocs, machineAllocBudget)
	} else {
		t.Logf("BenchmarkMachine run allocates %.0f times, budget %d", allocs, machineAllocBudget)
	}
}
