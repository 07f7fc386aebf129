// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each experiment
// returns a Table whose rows mirror the corresponding figure's series, so
// cmd/loosweep, the benchmark harness, and the examples all print the
// same data.
package experiments

import (
	"fmt"
	"strings"

	"loosesim"
	"loosesim/internal/pipeline"
	"loosesim/internal/workload"
)

// Options control run lengths for every experiment.
type Options struct {
	// Measure is the number of instructions measured per run.
	Measure uint64
	// Warmup is the number of instructions retired before measurement.
	Warmup uint64
	// Seed is the base simulation seed.
	Seed int64
	// Runner, when non-nil, replaces loosesim.RunAll as the batch engine
	// behind every experiment. cmd/loosweep injects the dispatch
	// coordinator here (dispatch.Coordinator.Runner), which shards the
	// batch over a fleet of backends or, with no fleet, runs it locally,
	// through serve.RunAllCached under -cache, so regenerating a figure
	// reuses any sweep point already in a content-addressed store. A
	// Runner must honour RunAll's contract: results in input order, first
	// error aborts.
	Runner func([]pipeline.Config) ([]*pipeline.Result, error)
}

// DefaultOptions returns full-length runs (the numbers EXPERIMENTS.md
// records).
func DefaultOptions() Options {
	return Options{Measure: 300_000, Warmup: 200_000, Seed: 1}
}

// QuickOptions returns short runs for smoke tests and examples.
func QuickOptions() Options {
	return Options{Measure: 60_000, Warmup: 60_000, Seed: 1}
}

// runBatch routes a batch of simulations through the configured engine.
func (o Options) runBatch(cfgs []pipeline.Config) ([]*pipeline.Result, error) {
	if o.Runner != nil {
		return o.Runner(cfgs)
	}
	return loosesim.RunAll(cfgs)
}

// Table is one experiment's result grid.
type Table struct {
	Title  string
	Header []string
	Rows   []Row
	Notes  string
}

// Row is one benchmark's (or sweep point's) series.
type Row struct {
	Label  string
	Values []float64
}

// Value returns the row's i-th value.
func (r Row) Value(i int) float64 { return r.Values[i] }

// Find returns the row with the given label, or nil.
func (t *Table) Find(label string) *Row {
	for i := range t.Rows {
		if t.Rows[i].Label == label {
			return &t.Rows[i]
		}
	}
	return nil
}

// String renders the table for terminal output.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Header)+1)
	widths[0] = len("benchmark")
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	for i, h := range t.Header {
		widths[i+1] = len(h)
		if widths[i+1] < 8 {
			widths[i+1] = 8
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0], "benchmark")
	for i, h := range t.Header {
		fmt.Fprintf(&b, "  %*s", widths[i+1], h)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0], r.Label)
		for i, v := range r.Values {
			fmt.Fprintf(&b, "  %*.3f", widths[i+1], v)
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "%s\n", t.Notes)
	}
	return b.String()
}

// runGrid runs one simulation per (benchmark, variant), the
// configuration mk builds with opt's run lengths and seed, and returns the
// results indexed [bench][variant].
func runGrid(opt Options, benches []string, variants int, mk func(bench string, v int) (pipeline.Config, error)) ([][]*pipeline.Result, error) {
	cfgs := make([]pipeline.Config, 0, len(benches)*variants)
	for _, b := range benches {
		for v := 0; v < variants; v++ {
			cfg, err := mk(b, v)
			if err != nil {
				return nil, err
			}
			cfg.MeasureInstructions, cfg.WarmupInstructions, cfg.Seed = opt.Measure, opt.Warmup, opt.Seed
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := opt.runBatch(cfgs)
	if err != nil {
		return nil, err
	}
	grid := make([][]*pipeline.Result, len(benches))
	for i := range grid {
		grid[i] = results[i*variants : (i+1)*variants]
	}
	return grid, nil
}

// each maps f over one benchmark's row of results.
func each(rs []*pipeline.Result, f func(*pipeline.Result) float64) []float64 {
	out := make([]float64, len(rs))
	for v, r := range rs {
		out[v] = f(r)
	}
	return out
}

// speedups is each result's IPC relative to that of rs[base].
func speedups(rs []*pipeline.Result, base int) []float64 {
	return each(rs, func(r *pipeline.Result) float64 { return r.IPC() / rs[base].IPC() })
}

// Fig4 reproduces Figure 4: performance as the decode→execute portion of
// the pipeline grows from 6 to 18 cycles (DEC-IQ and IQ-EX grown together),
// relative to the 6-cycle machine, with a 128-entry IQ.
func Fig4(opt Options) (*Table, error) {
	lats := []int{3, 5, 7, 9} // per-half latencies: totals 6, 10, 14, 18
	grid, err := runGrid(opt, workload.PaperOrder(), len(lats), func(b string, v int) (pipeline.Config, error) {
		cfg, err := loosesim.DefaultMachine(b)
		if err != nil {
			return cfg, err
		}
		cfg.DecIQLat = lats[v]
		cfg.IQExLat = lats[v]
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 4: speedup vs decode-to-execute length (relative to 6 cycles)",
		Header: []string{"6cyc", "10cyc", "14cyc", "18cyc"},
		Notes:  "values are relative performance; < 1.0 is a loss",
	}
	for i, b := range workload.PaperOrder() {
		t.Rows = append(t.Rows, Row{Label: b, Values: speedups(grid[i], 0)})
	}
	return t, nil
}

// Fig5 reproduces Figure 5: fixed 12-cycle decode→execute length split as
// DEC-IQ_IQ-EX in {3_9, 5_7, 7_5, 9_3}, relative to 3_9.
func Fig5(opt Options) (*Table, error) {
	splits := [][2]int{{3, 9}, {5, 7}, {7, 5}, {9, 3}}
	grid, err := runGrid(opt, workload.PaperOrder(), len(splits), func(b string, v int) (pipeline.Config, error) {
		cfg, err := loosesim.DefaultMachine(b)
		if err != nil {
			return cfg, err
		}
		cfg.DecIQLat = splits[v][0]
		cfg.IQExLat = splits[v][1]
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 5: speedup for fixed total latency (relative to 3_9)",
		Header: []string{"3_9", "5_7", "7_5", "9_3"},
		Notes:  "DEC-IQ_IQ-EX; moving cycles out of IQ-EX helps load-loop-bound programs",
	}
	for i, b := range workload.PaperOrder() {
		t.Rows = append(t.Rows, Row{Label: b, Values: speedups(grid[i], 0)})
	}
	return t, nil
}

// Fig6 reproduces Figure 6: the cumulative distribution of cycles between
// the availability of an instruction's first and second operand, on the
// base machine, for turb3d.
func Fig6(opt Options) (*Table, error) {
	grid, err := runGrid(opt, []string{"turb3d"}, 1, func(b string, _ int) (pipeline.Config, error) {
		return loosesim.DefaultMachine(b)
	})
	if err != nil {
		return nil, err
	}
	gap := grid[0][0].OperandGap
	t := &Table{
		Title:  "Figure 6: CDF of cycles between operand availability (turb3d)",
		Header: []string{"cum_frac"},
		Notes: fmt.Sprintf("median gap %d cycles; %.1f%% of instructions have gaps >= 25 cycles; forwarding depth 9 covers %.1f%%",
			gap.Percentile(0.5), 100*(1-gap.Fraction(24)), 100*gap.Fraction(9)),
	}
	for _, c := range []int{0, 1, 2, 4, 6, 9, 15, 25, 50, 75, 99} {
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("<=%d cycles", c),
			Values: []float64{gap.Fraction(c)},
		})
	}
	return t, nil
}

// Fig8 reproduces Figure 8: DRA speedup relative to the base machine for
// register file access latencies of 3, 5 and 7 cycles (DRA:5_3 vs Base:5_5,
// DRA:7_3 vs Base:5_7, DRA:9_3 vs Base:5_9).
func Fig8(opt Options) (*Table, error) {
	rfs := []int{3, 5, 7}
	// Variants: for each rf, base then DRA.
	grid, err := runGrid(opt, workload.PaperOrder(), 2*len(rfs), func(b string, v int) (pipeline.Config, error) {
		if v%2 == 0 {
			return loosesim.BaseMachine(b, rfs[v/2])
		}
		return loosesim.DRAMachine(b, rfs[v/2])
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 8: DRA speedup over base machine",
		Header: []string{"5_3/5_5", "7_3/5_7", "9_3/5_9"},
		Notes:  "columns are DRA:DEC-IQ_IQ-EX vs Base:DEC-IQ_IQ-EX for 3/5/7-cycle register files",
	}
	for i, b := range workload.PaperOrder() {
		row := Row{Label: b}
		for r := range rfs {
			row.Values = append(row.Values, grid[i][2*r+1].IPC()/grid[i][2*r].IPC())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig9 reproduces Figure 9: where operands come from under the DRA with a
// 5-cycle register file (the 7_3 configuration): register pre-read,
// forwarding buffer, CRC, or operand miss.
func Fig9(opt Options) (*Table, error) {
	grid, err := runGrid(opt, workload.PaperOrder(), 1, func(b string, _ int) (pipeline.Config, error) {
		return loosesim.DRAMachine(b, 5)
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 9: operand location for the 7_3 DRA (fractions of operands read)",
		Header: []string{"pre-read", "fwdbuf", "crc", "miss%"},
		Notes:  "miss%% is in percent; everything else is a fraction of operands",
	}
	for i, b := range workload.PaperOrder() {
		pr, fw, crc, miss := grid[i][0].OperandShare()
		t.Rows = append(t.Rows, Row{Label: b, Values: []float64{pr, fw, crc, 100 * miss}})
	}
	return t, nil
}
