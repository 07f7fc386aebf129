package pipeline

import (
	"runtime"
	"testing"

	"loosesim/internal/workload"
)

// machineAllocBudget is the committed bound on allocations per
// BenchmarkMachine run: construction plus a full warmup+measurement run of
// the base machine. The per-cycle path allocates nothing once the uop
// pool, the event-ring slabs and the tracking lists reach their
// high-water marks, so the count is fixed by construction and does not
// depend on the host. Lower it when a change saves allocations; a change
// that needs more must say why.
const machineAllocBudget = 173

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

// machineHeapBudgetKB bounds the live heap of one base-machine comp run
// (20k warmup + 100k measured instructions) after GC: the machine's
// tables, its event rings and the uop records held for recycling. It
// measures about 1.9 MB with rings and recycle delay sized to the event
// horizon, and 3.2 MB with fixed 1024-cycle ones, so the budget fails a
// return to fixed rings.
const machineHeapBudgetKB = 2400

// TestMachineHeapBudget is the memory gate: a finished machine, still
// reachable, may hold at most machineHeapBudgetKB of live heap. Skipped
// under -race, whose shadow state is not the machine's.
func TestMachineHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	wl, err := workload.ByName("comp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(wl)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 20_000, 100_000
	before := liveHeap()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	kb := (int64(liveHeap()) - int64(before)) >> 10
	runtime.KeepAlive(m)
	if kb > machineHeapBudgetKB {
		t.Errorf("a finished comp machine holds %d KB of live heap, budget %d KB", kb, machineHeapBudgetKB)
	} else {
		t.Logf("a finished comp machine holds %d KB of live heap, budget %d KB", kb, machineHeapBudgetKB)
	}
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
