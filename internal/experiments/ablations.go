package experiments

import (
	"fmt"

	"loosesim"
	"loosesim/internal/core"
	"loosesim/internal/pipeline"
)

// AblationLoadRecovery compares the three load resolution loop managements
// of Section 2.2.2 — reissue (the base machine), refetch, and stall — on a
// mix of branch-bound and load-bound programs. The paper reports refetch
// performing significantly worse than reissue, which is why it was dropped.
func AblationLoadRecovery(opt Options) (*Table, error) {
	benches := []string{"comp", "gcc", "swim", "turb3d"}
	policies := []pipeline.LoadRecovery{loosesim.LoadReissue, loosesim.LoadRefetch, loosesim.LoadStall}
	grid, err := runGrid(opt, benches, len(policies), func(b string, v int) (pipeline.Config, error) {
		cfg, err := loosesim.DefaultMachine(b)
		if err != nil {
			return cfg, err
		}
		cfg.LoadPolicy = policies[v]
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: load resolution loop management (relative to reissue)",
		Header: []string{"reissue", "refetch", "stall"},
		Notes:  "Section 2.2.2: speculate+reissue beats speculate+refetch beats no speculation",
	}
	for i, b := range benches {
		t.Rows = append(t.Rows, Row{Label: b, Values: speedups(grid[i], 0)})
	}
	return t, nil
}

// AblationCRC sweeps the cluster register cache geometry: capacity per
// cluster and insertion-counter width. The paper claims 16 entries are
// adequate and that 2-bit counters rarely saturate harmfully.
func AblationCRC(opt Options) (*Table, error) {
	benches := []string{"swim", "turb3d", "apsi"}
	type geom struct {
		entries, bits int
	}
	geoms := []geom{{4, 2}, {8, 2}, {16, 2}, {32, 2}, {16, 1}, {16, 3}}
	grid, err := runGrid(opt, benches, len(geoms), func(b string, v int) (pipeline.Config, error) {
		cfg, err := loosesim.DRAMachine(b, 5)
		if err != nil {
			return cfg, err
		}
		cfg.DRA.CRCEntries = geoms[v].entries
		cfg.DRA.CounterBits = geoms[v].bits
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: CRC geometry under the 7_3 DRA (relative to 16 entries / 2 bits)",
		Header: []string{"4e/2b", "8e/2b", "16e/2b", "32e/2b", "16e/1b", "16e/3b"},
		Notes:  "entries per cluster / insertion-counter bits",
	}
	for i, b := range benches {
		t.Rows = append(t.Rows, Row{Label: b, Values: speedups(grid[i], 2)})
	}
	return t, nil
}

// AblationForwardDepth sweeps the forwarding buffer depth on the base
// machine. Figure 6's analysis says 9 cycles cover roughly half of all
// operand reads; shallower buffers push that traffic to the register file
// (base machine) or the CRCs (DRA).
func AblationForwardDepth(opt Options) (*Table, error) {
	benches := []string{"turb3d", "swim", "gcc"}
	depths := []int{3, 6, 9, 15}
	grid, err := runGrid(opt, benches, len(depths), func(b string, v int) (pipeline.Config, error) {
		cfg, err := loosesim.DRAMachine(b, 5)
		if err != nil {
			return cfg, err
		}
		cfg.FwdDepth = depths[v]
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: forwarding buffer depth under the 7_3 DRA (speedup vs depth 9 | fwd share)",
		Header: []string{"d3", "d6", "d9", "d15", "fw3", "fw6", "fw9", "fw15"},
		Notes:  "left half: relative performance; right half: fraction of operands from forwarding",
	}
	fwdShare := func(r *pipeline.Result) float64 {
		_, fw, _, _ := r.OperandShare()
		return fw
	}
	for i, b := range benches {
		t.Rows = append(t.Rows, Row{Label: b, Values: append(speedups(grid[i], 2), each(grid[i], fwdShare)...)})
	}
	return t, nil
}

// AblationCRCPolicy compares the paper's simple FIFO replacement against
// LRU and against the Section 5.5 timeout alternative. The paper reports
// that mechanisms with "almost perfect knowledge" gained nearly nothing
// over FIFO — this reproduces that comparison.
func AblationCRCPolicy(opt Options) (*Table, error) {
	benches := []string{"swim", "turb3d", "apsi"}
	type variant struct {
		policy  core.ReplacementPolicy
		timeout int64
	}
	variants := []variant{{core.FIFO, 0}, {core.LRU, 0}, {core.FIFO, 100}, {core.FIFO, 400}}
	grid, err := runGrid(opt, benches, len(variants), func(b string, v int) (pipeline.Config, error) {
		cfg, err := loosesim.DRAMachine(b, 5)
		if err != nil {
			return cfg, err
		}
		cfg.DRA.Policy = variants[v].policy
		cfg.DRA.TimeoutCycles = variants[v].timeout
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: CRC replacement policy under the 7_3 DRA (relative to FIFO)",
		Header: []string{"fifo", "lru", "fifo+to100", "fifo+to400"},
		Notes:  "Section 5.1/5.5: FIFO is adequate; smarter replacement buys little",
	}
	for i, b := range benches {
		t.Rows = append(t.Rows, Row{Label: b, Values: speedups(grid[i], 0)})
	}
	return t, nil
}

// AblationMonolithic compares the clustered CRCs against the Section 4
// strawman: one shared register cache. A single cache of the per-cluster
// size thrashes; matching the DRA's total capacity in one structure would
// not be readable in a cycle, which is the paper's argument for clustering.
func AblationMonolithic(opt Options) (*Table, error) {
	benches := []string{"swim", "turb3d", "apsi"}
	type variant struct {
		mono    bool
		entries int
	}
	variants := []variant{{false, 16}, {true, 16}, {true, 32}, {true, 128}}
	grid, err := runGrid(opt, benches, len(variants), func(b string, v int) (pipeline.Config, error) {
		cfg, err := loosesim.DRAMachine(b, 5)
		if err != nil {
			return cfg, err
		}
		cfg.DRA.Monolithic = variants[v].mono
		cfg.DRA.CRCEntries = variants[v].entries
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: clustered vs monolithic register cache (speedup vs clustered | operand miss %)",
		Header: []string{"clust", "mono16", "mono32", "mono128", "m%clust", "m%m16", "m%m32", "m%m128"},
		Notes:  "a single small cache thrashes (Section 4); mono128 matches total capacity but could not be read in one cycle",
	}
	missPct := func(r *pipeline.Result) float64 { return 100 * r.OperandMissRate() }
	for i, b := range benches {
		t.Rows = append(t.Rows, Row{Label: b, Values: append(speedups(grid[i], 0), each(grid[i], missPct)...)})
	}
	return t, nil
}

// AblationMemDep compares managements of the memory dependence loop
// (Figure 2's load/store reorder trap loop): blind speculation (trap on
// every violation), 21264-style store-wait prediction, and conservative
// waiting (no speculation). The classic shape: conservative is far worse
// than speculating, and the predictor removes most repeat traps.
func AblationMemDep(opt Options) (*Table, error) {
	benches := []string{"gcc", "m88", "swim", "apsi"}
	policies := []pipeline.MemDepPolicy{pipeline.MemDepStoreWait, pipeline.MemDepBlind, pipeline.MemDepConservative}
	grid, err := runGrid(opt, benches, len(policies), func(b string, v int) (pipeline.Config, error) {
		cfg, err := loosesim.DefaultMachine(b)
		if err != nil {
			return cfg, err
		}
		cfg.MemDep = policies[v]
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: memory dependence loop management (speedup vs store-wait | order traps)",
		Header: []string{"storewait", "blind", "conserv", "tSW", "tBlind", "tCons"},
		Notes:  "the memory trap loop of Figure 2: initiation at issue, recovery at fetch",
	}
	traps := func(r *pipeline.Result) float64 { return float64(r.Counters.MemOrderTraps) }
	for i, b := range benches {
		t.Rows = append(t.Rows, Row{Label: b, Values: append(speedups(grid[i], 0), each(grid[i], traps)...)})
	}
	return t, nil
}

// AblationIQPressure quantifies Section 2.2.2's IQ-pressure claim: mean IQ
// occupancy and the issued-but-retained population as IQ-EX grows.
func AblationIQPressure(opt Options) (*Table, error) {
	benches := []string{"gcc", "swim"}
	iqex := []int{3, 5, 7, 9}
	grid, err := runGrid(opt, benches, len(iqex), func(b string, v int) (pipeline.Config, error) {
		cfg, err := loosesim.DefaultMachine(b)
		if err != nil {
			return cfg, err
		}
		cfg.IQExLat = iqex[v]
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: IQ pressure vs IQ-EX latency (mean occupancy | issued-retained)",
		Header: []string{"occ3", "occ5", "occ7", "occ9", "ret3", "ret5", "ret7", "ret9"},
		Notes:  "128-entry IQ; retained entries are issued instructions awaiting reissue confirmation",
	}
	occupancy := func(r *pipeline.Result) float64 { return r.IQOccupancy }
	retained := func(r *pipeline.Result) float64 { return r.IQRetained }
	for i, b := range benches {
		t.Rows = append(t.Rows, Row{Label: b, Values: append(each(grid[i], occupancy), each(grid[i], retained)...)})
	}
	return t, nil
}

// AblationPredictor sweeps branch predictor quality on the branchy integer
// programs, quantifying the branch resolution loop's leverage: the same
// machine with a worse predictor mis-speculates more often and loses
// accordingly.
func AblationPredictor(opt Options) (*Table, error) {
	benches := []string{"comp", "gcc", "go", "m88"}
	kinds := []pipeline.PredictorKind{
		pipeline.PredTournament, pipeline.PredPerceptron, pipeline.PredGShare,
		pipeline.PredBimodal, pipeline.PredStatic,
	}
	grid, err := runGrid(opt, benches, len(kinds), func(b string, v int) (pipeline.Config, error) {
		cfg, err := loosesim.DefaultMachine(b)
		if err != nil {
			return cfg, err
		}
		cfg.Predictor = kinds[v]
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: branch predictor quality (speedup vs tournament | mispredict %)",
		Header: []string{"tourn", "percep", "gshare", "bimod", "static", "m%tou", "m%per", "m%gsh", "m%bim", "m%sta"},
		Notes: "the branch resolution loop's cost scales with the mis-speculation rate (Section 1);\n" +
			"pure global-history gshare collapses on these streams because the synthetic sites\n" +
			"interleave randomly — per-PC components (bias weights, local history) carry the signal",
	}
	mispredictPct := func(r *pipeline.Result) float64 { return 100 * r.MispredictRate() }
	for i, b := range benches {
		t.Rows = append(t.Rows, Row{Label: b, Values: append(speedups(grid[i], 0), each(grid[i], mispredictPct)...)})
	}
	return t, nil
}

// LoopDelayCheck verifies the loop-delay arithmetic of Sections 1–2 on the
// configured machine: the base load resolution loop delay (IQ-EX + feedback)
// and the minimum branch mis-speculation penalty.
func LoopDelayCheck() *Table {
	cfg, _ := loosesim.DefaultMachine("gcc")
	t := &Table{
		Title:  "Loop delay arithmetic (base machine)",
		Header: []string{"cycles"},
	}
	t.Rows = append(t.Rows,
		Row{Label: "load loop delay (IQ-EX + feedback)", Values: []float64{float64(cfg.IQExLat + cfg.FeedbackDelay)}},
		Row{Label: "branch loop length (DEC-IQ + IQ-EX + resolve)", Values: []float64{float64(cfg.DecIQLat + cfg.IQExLat + 1)}},
		Row{Label: "branch loop delay (+ fetch redirect)", Values: []float64{float64(cfg.DecIQLat + cfg.IQExLat + 1 + cfg.BranchFBDelay)}},
	)
	t.Notes = fmt.Sprintf("paper: base load loop delay = 8 (5 + 3); here %d + %d", cfg.IQExLat, cfg.FeedbackDelay)
	return t
}
