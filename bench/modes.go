package main

import (
	"context"
	"fmt"
	"os"

	"loosesim"
	"loosesim/internal/pipeline"
)

// repeat runs each workload n times at seeds seed..seed+n-1 and prints,
// per metric, the median, the quartiles and their distance as a share of
// the median — the spread BENCHMARK.json's bounds are set against. A
// traced repeat also makes n untraced runs, to report tracing overhead.
func repeat(ctx context.Context, ws []*workload, o options, n int, res *result) error {
	for _, w := range ws {
		vals, rep, err := repeatRuns(ctx, w, o, n)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, %gs each, traced %v\n\n", w.name, n, o.seed, o.seed+int64(n)-1, o.seconds, o.trace)
		fmt.Println("| metric | unit | median | q1 | q3 | spread |")
		fmt.Println("|---|---|---:|---:|---:|---:|")
		medians := &report{Metrics: map[string]float64{}, Attempted: rep.Attempted, Failed: rep.Failed, Problems: rep.Problems}
		for _, d := range defs(o.trace) {
			v := vals[d.name]
			q1, q3 := quartiles(v)
			medians.Metrics[d.name] = median(v)
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.1f%% |\n", d.name, d.unit, median(v), q1, q3, 100*spread(v))
		}
		if o.trace {
			plain := o
			plain.trace = false
			base, _, err := repeatRuns(ctx, w, plain, n)
			if err != nil {
				return err
			}
			fmt.Printf("\ntrace.overhead_pct: latency_p50 %+.1f%%, kips %+.1f%% (traced vs untraced medians)\n",
				100*(median(vals["traced.latency_p50_ms"])/median(base["latency_p50_ms"])-1),
				100*(median(vals["traced.kips"])/median(base["kips"])-1))
		}
		fmt.Println()
		res.add(w.name, len(ws) > 1, medians, defs(o.trace))
	}
	return nil
}

// repeatRuns measures w n times and collects each metric's values, with
// the ops and failures summed into one report.
func repeatRuns(ctx context.Context, w *workload, o options, n int) (map[string][]float64, *report, error) {
	vals := map[string][]float64{}
	sum := &report{}
	for i := 0; i < n; i++ {
		ro := o
		ro.seed = o.seed + int64(i)
		rep, err := measure(ctx, w, ro)
		if err != nil {
			return nil, nil, err
		}
		sum.Attempted += rep.Attempted
		sum.Failed += rep.Failed
		sum.Problems = append(sum.Problems, rep.Problems...)
		for k, v := range rep.Metrics {
			vals[k] = append(vals[k], v)
		}
	}
	return vals, sum, nil
}

// goldenRounds is how many rounds of every configuration -update records
// per workload: a default-length run makes two to four on a 2-CPU host,
// and rounds past these run checked against invariants only. The served
// workload's cold sweep is recorded whatever the rounds.
const goldenRounds = 6

// update regenerates the golden file at the default seed and sizes: a
// digest of every output the workloads produce in goldenRounds rounds,
// and each sampled cell's full-run counters.
func update(ctx context.Context) error {
	path, err := goldenFile()
	if err != nil {
		return err
	}
	g := &goldens{Seed: defaultSeed, Digests: map[string]string{}, Reference: map[string]pipeline.Counters{}}
	chk := &checker{g: g, record: true}
	for _, w := range workloads() {
		o := options{seed: defaultSeed, seconds: defaultSeconds, rounds: goldenRounds}
		rep, err := runChild(ctx, w, o, "run", "", chk)
		if err != nil {
			return err
		}
		if !rep.correct() {
			return fmt.Errorf("%s: %v", w.name, rep.Problems)
		}
		fmt.Fprintf(os.Stderr, "%s: %d outputs recorded\n", w.name, rep.Attempted)
	}
	cells, err := sampledCells(false)
	if err != nil {
		return err
	}
	cfgs := make([]pipeline.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = c.cfg
		cfgs[i].Seed = defaultSeed
	}
	full, err := loosesim.RunAllContext(ctx, cfgs)
	if err != nil {
		return err
	}
	for i, c := range cells {
		g.Reference[label("sampled", c.bench, c.tag, defaultSeed)] = full[i].Counters
	}
	return g.write(path)
}

// goldenFile finds the golden file from the repository root or from the
// bench directory.
func goldenFile() (string, error) {
	for _, p := range []string{goldenPath, "bench/" + goldenPath} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("%s not found; run from the repository root or bench/", goldenPath)
}
