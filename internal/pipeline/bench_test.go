package pipeline

import (
	"testing"

	"loosesim/internal/workload"
)

// machineBenchConfig is BenchmarkMachine's configuration: the base
// machine on gcc, 5k warmup and 30k measured instructions.
func machineBenchConfig(tb testing.TB) Config {
	tb.Helper()
	wl, err := workload.ByName("gcc")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig(wl)
	cfg.WarmupInstructions = 5_000
	cfg.MeasureInstructions = 30_000
	return cfg
}

// BenchmarkMachine measures the simulation hot path end to end: one
// iteration is one full warmup+measurement run of the base machine. The
// -benchmem allocs/op figure is the end-to-end measure of hot-path
// allocation, next to the per-site escape counts the perf ratchet
// (TestRepoWithinPerfBudget) budgets; TestMachineAllocBudget gates it, and
// scripts/perfgate.sh runs it against the base commit's build in
// interleaved pairs and fails when this tree is more than 15% slower.
func BenchmarkMachine(b *testing.B) {
	cfg := machineBenchConfig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res := m.Run()
		if res.Counters.Retired == 0 {
			b.Fatal("no instructions retired")
		}
	}
}

// BenchmarkMachineDRA is the same run with the DRA enabled, covering the
// operandsDelivered hot path.
func BenchmarkMachineDRA(b *testing.B) {
	wl, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DRAConfigRF(wl, 3)
	cfg.WarmupInstructions = 5_000
	cfg.MeasureInstructions = 30_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res := m.Run()
		if res.Counters.Retired == 0 {
			b.Fatal("no instructions retired")
		}
	}
}

// BenchmarkRestore measures one checkpoint restore — the sampler's
// per-window setup — from a checkpoint taken after 1M functionally warmed
// instructions of the base machine.
func BenchmarkRestore(b *testing.B) {
	wl, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(wl)
	chain, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	chain.WarmForward(1_000_000)
	ckpt, err := chain.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Restore(cfg, ckpt); err != nil {
			b.Fatal(err)
		}
	}
}
