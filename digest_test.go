package loosesim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"loosesim"
	"loosesim/internal/experiments"
	"loosesim/internal/pipeline"
	"loosesim/internal/sample"
	"loosesim/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/result_digests.json from this tree's results")

// digestFile pins the simulated output of the grid below: the sha256 of
// each result's JSON encoding. A Result holds simulated quantities only (no
// host timing), so any change to a digest is a change in what the machine
// computes. A change that means to alter simulated output regenerates the
// file with -update and says why; a refactor must leave it untouched.
const digestFile = "testdata/result_digests.json"

// digestMachine builds one grid point: the named benchmark on the base or
// DRA machine with the given register file latency, short run lengths,
// then tweak.
func digestMachine(t *testing.T, bench string, dra bool, regRead int, tweak func(*pipeline.Config)) pipeline.Config {
	t.Helper()
	var cfg pipeline.Config
	var err error
	if dra {
		cfg, err = loosesim.DRAMachine(bench, regRead)
	} else {
		cfg, err = loosesim.BaseMachine(bench, regRead)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg.WarmupInstructions = 10_000
	cfg.MeasureInstructions = 40_000
	if tweak != nil {
		tweak(&cfg)
	}
	return cfg
}

// resultDigests runs the digest grid and returns each output's digest by
// name: single runs across every policy the machine has, the SMT pairs, a
// small clustered IQ, two sampled runs and every checkpoint they restore
// from, a mid-run checkpoint of each snapshot variant, and one short
// table of Figures 4, 5, 6, 8 and 9 and of every ablation.
func resultDigests(t *testing.T) map[string]string {
	t.Helper()
	blind := func(c *pipeline.Config) { c.MemDep = pipeline.MemDepBlind }
	conservative := func(c *pipeline.Config) { c.MemDep = pipeline.MemDepConservative }
	refetch := func(c *pipeline.Config) { c.LoadPolicy = pipeline.LoadRefetch }
	stall := func(c *pipeline.Config) { c.LoadPolicy = pipeline.LoadStall }
	smallIQ := func(c *pipeline.Config) {
		c.IQEntries, c.Clusters, c.DRA.Clusters = 32, 2, 2
	}
	runs := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"memdep-blind/gcc", digestMachine(t, "gcc", false, 3, blind)},
		{"memdep-conservative/gcc", digestMachine(t, "gcc", false, 3, conservative)},
		{"load-refetch/gcc", digestMachine(t, "gcc", false, 3, refetch)},
		{"load-refetch/swim", digestMachine(t, "swim", false, 3, refetch)},
		{"load-stall/gcc", digestMachine(t, "gcc", false, 3, stall)},
		{"load-stall/swim", digestMachine(t, "swim", false, 3, stall)},
		{"dra-rf3/apsi", digestMachine(t, "apsi", true, 3, nil)},
		{"dra-rf5/apsi", digestMachine(t, "apsi", true, 5, nil)},
		{"dra-rf7/swim", digestMachine(t, "swim", true, 7, nil)},
		{"smt/m88-comp", digestMachine(t, "m88-comp", false, 3, nil)},
		{"smt-dra/apsi-swim", digestMachine(t, "apsi-swim", true, 5, nil)},
		{"iq32x2/gcc", digestMachine(t, "gcc", false, 3, smallIQ)},
		{"iq32x2-dra/turb3d", digestMachine(t, "turb3d", true, 5, smallIQ)},
	}
	cfgs := make([]pipeline.Config, len(runs))
	for i, r := range runs {
		cfgs[i] = r.cfg
	}
	results, err := loosesim.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for i, r := range runs {
		out[r.name] = digestOf(t, results[i])
	}

	so := sample.Options{Windows: 4, WindowInstructions: 2_000, DetailedWarmup: 4_000}
	for _, s := range []struct {
		name string
		cfg  pipeline.Config
	}{
		{"sample/gcc", digestMachine(t, "gcc", false, 3, func(c *pipeline.Config) { c.MeasureInstructions = 200_000 })},
		{"sample-dra/swim", digestMachine(t, "swim", true, 5, func(c *pipeline.Config) { c.MeasureInstructions = 200_000 })},
	} {
		est, err := sample.Run(context.Background(), s.cfg, so)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		out[s.name] = digestOf(t, est)
		// The checkpoints themselves are content addresses (serve and
		// dispatch key their caches by them), so their bytes are pinned
		// too, not just the estimate computed from them.
		ckpts, err := sample.Checkpoints(s.cfg, so)
		if err != nil {
			t.Fatalf("%s: checkpoints: %v", s.name, err)
		}
		for i, c := range ckpts {
			sum := sha256.Sum256(c)
			out[fmt.Sprintf("%s/checkpoint-%02d", s.name, i)] = hex.EncodeToString(sum[:])
		}
	}

	// Mid-run machine checkpoints: the snapshot variants of
	// internal/pipeline's snapshotConfigs (every predictor family, DRA,
	// SMT), stopped with uops in flight and events pending. A codec that
	// round-trips its own output cannot catch a format change; these can.
	for _, s := range []struct {
		name, bench string
		mutate      func(*pipeline.Config)
	}{
		{"base", "gcc", nil},
		{"gshare", "m88", func(c *pipeline.Config) { c.Predictor = pipeline.PredGShare }},
		{"bimodal", "swim", func(c *pipeline.Config) { c.Predictor = pipeline.PredBimodal }},
		{"static", "comp", func(c *pipeline.Config) { c.Predictor = pipeline.PredStatic }},
		{"smt", "m88-comp", nil},
		{"dra", "gcc", func(c *pipeline.Config) {
			c.UseDRA = true
			c.Predictor = pipeline.PredPerceptron
		}},
	} {
		wl, err := workload.ByName(s.bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := pipeline.DefaultConfig(wl)
		cfg.WarmupInstructions = 5_000
		cfg.MeasureInstructions = 12_000
		if s.mutate != nil {
			s.mutate(&cfg)
		}
		m, err := pipeline.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.RunUntilRetired(context.Background(), 7_001); err != nil {
			t.Fatal(err)
		}
		ckpt, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(ckpt)
		out["snapshot-mid/"+s.name] = hex.EncodeToString(sum[:])
	}

	opt := experiments.Options{Measure: 10_000, Warmup: 10_000, Seed: 1}
	for _, f := range []struct {
		name string
		gen  func(experiments.Options) (*experiments.Table, error)
	}{
		{"fig4", experiments.Fig4},
		{"fig5", experiments.Fig5},
		{"fig6", experiments.Fig6},
		{"fig8", experiments.Fig8},
		{"fig9", experiments.Fig9},
		{"ablation/recovery", experiments.AblationLoadRecovery},
		{"ablation/crc", experiments.AblationCRC},
		{"ablation/fwd", experiments.AblationForwardDepth},
		{"ablation/crcpolicy", experiments.AblationCRCPolicy},
		{"ablation/monolithic", experiments.AblationMonolithic},
		{"ablation/memdep", experiments.AblationMemDep},
		{"ablation/iqpressure", experiments.AblationIQPressure},
		{"ablation/predictor", experiments.AblationPredictor},
	} {
		tab, err := f.gen(opt)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		out[f.name] = digestOf(t, tab)
	}
	return out
}

func digestOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestResultDigestsGolden is the tier-1 byte-identity check: every output
// of the digest grid must hash to its committed digest. Run with -update
// to rewrite the file after an intended change in simulated output.
func TestResultDigestsGolden(t *testing.T) {
	got := resultDigests(t)
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", digestFile, err)
	}
	names := make([]string, 0, len(got)+len(want))
	for n := range got {
		names = append(names, n)
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if got[n] != want[n] {
			t.Errorf("%s: digest %.12s, golden %.12s", n, got[n], want[n])
		}
	}
}
