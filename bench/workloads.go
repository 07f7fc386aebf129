package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"loosesim"
	"loosesim/internal/pipeline"
	"loosesim/internal/sample"
)

// workload is one set of inputs the benchmark runs. prepare is the
// set-up (everything before the first timed op); the function it returns
// runs the timed phase.
type workload struct {
	name, why string
	prepare   func(ctx context.Context, e *env) (runFunc, error)
}

type runFunc func(ctx context.Context, e *env) (*phase, error)

// options are the run parameters every workload sees.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	trace   bool
	// rounds, when positive, runs exactly that many rounds of every
	// configuration (for the served workload, that many repeat sweeps)
	// instead of running until seconds have passed; -update uses it so the
	// golden file does not depend on host speed.
	rounds int
}

// env is one child process's state: its options, the output checker and,
// when tracing, the bench-side span log.
type env struct {
	o     options
	chk   *checker
	spans *spanLog
}

// phase is what a timed phase measured.
type phase struct {
	wall      time.Duration
	latencies []float64 // ms until each op's result was in hand
	attempted int
	failed    int
	kinst     float64 // simulated kilo-instructions the ops covered
	// speeds holds, per group, host-speed samples in simulated
	// kilo-instructions per host second: one per batch of full runs, per
	// sampled cell, or per served miss.
	speeds map[string][]float64
	// opTimes holds, per configuration, each op's host time in ms, for
	// workloads whose ops differ in size by configuration.
	opTimes map[string][]float64
	workers int
	// results are the detailed (cycle-accurate) results the phase
	// produced, for the simulated-work per-layer ratios.
	results []*pipeline.Result
	// configs are the workload's machines, for the per-layer probes.
	configs []pipeline.Config
	// layer holds workload-specific per-layer values.
	layer map[string]float64
}

func newPhase(workers int) *phase {
	return &phase{workers: workers, speeds: map[string][]float64{}, opTimes: map[string][]float64{}, layer: map[string]float64{}}
}

// kips is the geometric mean over groups of each group's median speed
// sample, so every group weighs alike whatever number of ops it ran.
func (p *phase) kips() float64 {
	return geomean(p.speeds, median)
}

// p50 is the median op latency. Where op sizes differ by configuration it
// is the geometric mean over configurations of each one's median, so the
// mix of configurations a run happens to complete does not move it.
func (p *phase) p50() float64 {
	if len(p.opTimes) > 0 {
		return geomean(p.opTimes, median)
	}
	return median(p.latencies)
}

// keepGoing reports whether another round should start.
func (o options) keepGoing(round int, elapsed time.Duration) bool {
	if o.rounds > 0 {
		return round < o.rounds
	}
	return round == 0 || elapsed.Seconds() < o.seconds
}

// spanLog keeps spans in memory as per-name totals, with counts recorded
// at the same boundaries. The benchmark times calls into each layer from
// its own code; the only spans from inside the program are the serve
// layer's own (serve.Options.Tracer). The kernel's detailed runs are
// logged as "run", with the cycles they simulated as the "cycles" count.
// A nil log, in an untraced run, records nothing.
type spanLog struct {
	mu     sync.Mutex
	total  map[string]time.Duration
	counts map[string]int64
}

func newSpanLog() *spanLog {
	return &spanLog{total: map[string]time.Duration{}, counts: map[string]int64{}}
}

func (l *spanLog) add(name string, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.total[name] += d
	l.mu.Unlock()
}

func (l *spanLog) count(name string, v int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.counts[name] += v
	l.mu.Unlock()
}

func (l *spanLog) sum(name string) time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total[name]
}

func (l *spanLog) counted(name string) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[name]
}

// timed runs f and logs its duration under name.
func (l *spanLog) timed(name string, f func()) {
	t := time.Now()
	f()
	l.add(name, time.Since(t))
}

func workloads() []*workload {
	return []*workload{
		{
			name:    "full-int",
			why:     "branchy integer codes on the base machine: fetch, squash and bpred do the work and no DRA code runs",
			prepare: fullInt.prepare,
		},
		{
			name:    "full-fp-dra",
			why:     "FP codes on the DRA machine with a 5-cycle RF: IQ select/wakeup, mem and the DRA core do the work, bpred little",
			prepare: fullFP.prepare,
		},
		{
			name:    "sampled-fig8",
			why:     "Figure-8 cells through the sampler: functional warming and checkpoint restore dominate, the kernel runs only windows",
			prepare: prepareSampled,
		},
		{
			name:    "served-fig8",
			why:     "a quick Figure-8 sweep posted through the dispatch coordinator to the HTTP server, cold once and then repeated from its cache",
			prepare: prepareServed,
		},
	}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fullBatch is a closed batch of full cycle-accurate runs of a fixed set
// of configurations, run with loosesim.RunAllContext round after round at
// seeds seed, seed+1, ... One op is one such batch.
type fullBatch struct {
	name    string
	benches []string
	machine func(bench string) (loosesim.Config, error)
	tag     string
}

var fullInt = &fullBatch{
	name:    "full-int",
	benches: []string{"comp", "gcc", "go", "m88", "m88-comp"},
	machine: func(b string) (loosesim.Config, error) { return loosesim.BaseMachine(b, 3) },
	tag:     "base5_5",
}

var fullFP = &fullBatch{
	name:    "full-fp-dra",
	benches: []string{"apsi", "hydro", "swim", "turb3d", "apsi-swim"},
	machine: func(b string) (loosesim.Config, error) { return loosesim.DRAMachine(b, 5) },
	tag:     "dra7_3",
}

func (f *fullBatch) configs(quick bool) ([]pipeline.Config, error) {
	var cfgs []pipeline.Config
	for _, b := range f.benches {
		cfg, err := f.machine(b)
		if err != nil {
			return nil, err
		}
		cfg.WarmupInstructions, cfg.MeasureInstructions = 200_000, 1_000_000
		if quick {
			cfg.WarmupInstructions, cfg.MeasureInstructions = 5_000, 20_000
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

func (f *fullBatch) prepare(ctx context.Context, e *env) (runFunc, error) {
	base, err := f.configs(e.o.quick)
	if err != nil {
		return nil, err
	}
	// Warm-up batch: short runs of every config, untimed and unchecked,
	// so the timed phase starts with the heap grown and the code paged in.
	warm := append([]pipeline.Config(nil), base...)
	for i := range warm {
		warm[i].Seed = e.o.seed
		warm[i].WarmupInstructions, warm[i].MeasureInstructions = 5_000, 20_000
	}
	if _, err := loosesim.RunAllContext(ctx, warm); err != nil {
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	return func(ctx context.Context, e *env) (*phase, error) {
		ph := newPhase(min(runtime.GOMAXPROCS(0), len(base)))
		ph.configs = base
		start := time.Now()
		for round := 0; e.o.keepGoing(round, time.Since(start)); round++ {
			cfgs := append([]pipeline.Config(nil), base...)
			for i := range cfgs {
				cfgs[i].Seed = e.o.seed + int64(round)
			}
			cpu := processCPU()
			t := time.Now()
			results, err := loosesim.RunAllContext(ctx, cfgs)
			wall := time.Since(t)
			if err != nil {
				return nil, err
			}
			var kinst float64
			failed := 0
			for i, r := range results {
				ph.attempted++
				if !e.chk.result(runLabel(e.o, f.name, f.benches[i], f.tag, cfgs[i].Seed), cfgs[i], r) {
					failed++
					continue
				}
				kinst += float64(r.TotalRetired) / 1000
				ph.results = append(ph.results, r)
				e.spans.count("cycles", r.TotalCycles)
			}
			e.spans.add("run", processCPU()-cpu)
			ph.failed += failed
			if failed > 0 {
				continue
			}
			ph.kinst += kinst
			ph.latencies = append(ph.latencies, float64(wall)/1e6)
			ph.speeds["batch"] = append(ph.speeds["batch"], kinst/wall.Seconds())
		}
		ph.wall = time.Since(start)
		return ph, nil
	}, nil
}

// runLabel names one output for the golden file. Quick runs carry a
// prefix so they never collide with (or verify against) full-size runs.
func runLabel(o options, parts ...any) string {
	l := label(parts...)
	if o.quick {
		return "quick/" + l
	}
	return l
}

// sampledCell is one Figure-8 cell: a benchmark on the base machine with
// a 5-cycle register file (5_7) or on the DRA machine (7_3).
type sampledCell struct {
	bench, tag string
	cfg        pipeline.Config
}

func sampledCells(quick bool) ([]sampledCell, error) {
	var cells []sampledCell
	machines := []struct {
		tag string
		new func(string, int) (loosesim.Config, error)
	}{{"base5_7", loosesim.BaseMachine}, {"dra7_3", loosesim.DRAMachine}}
	for _, b := range []string{"gcc", "swim", "apsi", "hydro"} {
		for _, mc := range machines {
			cfg, err := mc.new(b, 5)
			if err != nil {
				return nil, err
			}
			cfg.WarmupInstructions, cfg.MeasureInstructions = 200_000, 3_000_000
			if quick {
				cfg.WarmupInstructions, cfg.MeasureInstructions = 20_000, 200_000
			}
			cells = append(cells, sampledCell{bench: b, tag: mc.tag, cfg: cfg})
		}
	}
	return cells, nil
}

func sampleOptions(quick bool) sample.Options {
	if quick {
		return sample.Options{Windows: 4, WindowInstructions: 2_000, DetailedWarmup: 4_000}
	}
	return sample.DefaultOptions()
}

// cellRun is one sampled run of a cell.
type cellRun struct {
	cell    sampledCell
	cfg     pipeline.Config
	est     *sample.Estimate
	windows []*pipeline.Result // traced runs only
	wall    time.Duration
}

func prepareSampled(ctx context.Context, e *env) (runFunc, error) {
	cells, err := sampledCells(e.o.quick)
	if err != nil {
		return nil, err
	}
	o := sampleOptions(e.o.quick)
	// Warm-up: one short sampled run, untimed and unchecked.
	warm := cells[0].cfg
	warm.Seed = e.o.seed
	warm.WarmupInstructions, warm.MeasureInstructions = 20_000, 200_000
	if _, err := sample.Run(ctx, warm, sample.Options{Windows: 4, WindowInstructions: 2_000, DetailedWarmup: 4_000}); err != nil {
		return nil, fmt.Errorf("warm-up sampled run: %w", err)
	}
	return func(ctx context.Context, e *env) (*phase, error) {
		ph := newPhase(1)
		for _, c := range cells {
			ph.configs = append(ph.configs, c.cfg)
		}
		start := time.Now()
		var runs []cellRun
		for round := 0; e.o.keepGoing(round, time.Since(start)); round++ {
			for _, c := range cells {
				r := cellRun{cell: c, cfg: c.cfg}
				r.cfg.Seed = e.o.seed + int64(round)
				t := time.Now()
				var err error
				r.est, r.windows, err = runSampled(ctx, e.spans, r.cfg, o)
				r.wall = time.Since(t)
				if err != nil {
					return nil, err
				}
				runs = append(runs, r)
			}
		}
		var ipcErr, errRatio float64
		scored := 0
		for _, r := range runs {
			key := runLabel(e.o, "sampled", r.cell.bench, r.cell.tag, r.cfg.Seed)
			ph.attempted++
			if !e.chk.estimate(key, o, r.est) {
				ph.failed++
				continue
			}
			covered := float64(r.cfg.WarmupInstructions+r.cfg.MeasureInstructions) / 1000
			cell := r.cell.bench + "/" + r.cell.tag
			ms := float64(r.wall) / 1e6
			ph.latencies = append(ph.latencies, ms)
			ph.opTimes[cell] = append(ph.opTimes[cell], ms)
			ph.kinst += covered
			ph.speeds[cell] = append(ph.speeds[cell], covered/r.wall.Seconds())
			ph.results = append(ph.results, r.windows...)
			if full, ok := e.chk.g.Reference[key]; ok {
				ie, er := sampleErrors(r.est.Counters, full)
				ipcErr = math.Max(ipcErr, ie)
				errRatio += er
				scored++
			}
		}
		ph.wall = time.Since(start)
		if scored > 0 {
			ph.layer["sample.ipc_err_pct"] = ipcErr
			ph.layer["sample.err_ratio"] = errRatio / float64(scored)
		}
		if cells := e.spans.sum("cell"); cells > 0 {
			for s, span := range map[string]string{"checkpoints": "checkpoints", "restore": "restore", "window": "run", "merge": "merge"} {
				ph.layer["sample."+s+"_share"] = 100 * float64(e.spans.sum(span)) / float64(cells)
			}
		}
		return ph, nil
	}, nil
}

// runSampled is sample.Run. Traced, it calls the public steps sample.Run
// is built from — Checkpoints, RestoreReusing and RunContext per window,
// Merge — and times each; the estimate is byte-identical either way,
// which the golden digests check.
func runSampled(ctx context.Context, spans *spanLog, cfg pipeline.Config, o sample.Options) (*sample.Estimate, []*pipeline.Result, error) {
	if spans == nil {
		est, err := sample.Run(ctx, cfg, o)
		return est, nil, err
	}
	t := time.Now()
	defer func() { spans.add("cell", time.Since(t)) }()
	var ckpts [][]byte
	var err error
	spans.timed("checkpoints", func() { ckpts, err = sample.Checkpoints(cfg, o) })
	if err != nil {
		return nil, nil, err
	}
	wcfg := sample.WindowConfig(cfg, o)
	results := make([]*pipeline.Result, len(ckpts))
	var donor *pipeline.Machine
	for i, ckpt := range ckpts {
		var m *pipeline.Machine
		spans.timed("restore", func() { m, err = pipeline.RestoreReusing(wcfg, ckpt, donor) })
		if err != nil {
			return nil, nil, fmt.Errorf("window %d: %w", i, err)
		}
		c0 := m.Cycle()
		spans.timed("run", func() { results[i], err = m.RunContext(ctx) })
		if err != nil {
			return nil, nil, fmt.Errorf("window %d: %w", i, err)
		}
		spans.count("cycles", results[i].TotalCycles-c0)
		donor = m
	}
	var est *sample.Estimate
	spans.timed("merge", func() { est, err = sample.Merge(results, o, cfg.MeasureInstructions) })
	return est, results, err
}
