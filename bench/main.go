// Command bench is the repository's benchmark: it runs the simulator's
// workloads — full cycle-accurate batches, sampled Figure-8 cells and a
// Figure-8 sweep served over HTTP — prints every end-to-end metric by
// name and unit, and checks the simulated outputs. See README.md.
//
//	bash bench/run.sh --workload full-int --seed 1 --seconds 20 --trace 0
//
// Each measurement runs in a re-executed child process, so set-up time
// and peak memory are the child's own. --trace 1 makes a separate traced
// run that reports per-layer metrics instead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// childEnv selects child mode ("setup" or "run") in a re-executed process.
const childEnv = "LOOSEBENCH_CHILD"

// childTimeout bounds one child; a run must end well inside 180 s.
const childTimeout = 170 * time.Second

// defaultSeconds is the timed length of one run. BENCHMARK.json's
// run_seconds matches it, so the golden digests cover the served
// schedule of a run of that length.
const defaultSeconds = 20

// buildDir holds everything running the benchmark leaves behind.
const buildDir = ".bench_build"

type config struct {
	workload string
	o        options
	repeat   int
	update   bool
	profile  string
}

func parseFlags(args []string) (config, error) {
	var c config
	var traceFlag int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&c.o.seed, "seed", defaultSeed, "seed the workload inputs are made from")
	fs.Float64Var(&c.o.seconds, "seconds", defaultSeconds, "timed seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&c.o.quick, "quick", false, "small inputs, for a smoke test")
	fs.IntVar(&c.repeat, "repeat", 0, "run each workload N times at seeds seed..seed+N-1 and print medians and IQRs")
	fs.BoolVar(&c.update, "update", false, "regenerate testdata/golden.json at the default seed")
	fs.StringVar(&c.profile, "profile", "", "child only: CPU profile path of a traced run")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return c, fmt.Errorf("--trace %d: want 0 or 1", traceFlag)
	}
	c.o.trace = traceFlag == 1
	if c.o.seconds <= 0 {
		return c, fmt.Errorf("--seconds %v: want > 0", c.o.seconds)
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	return c, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	c, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ctx := context.Background()
	if mode := os.Getenv(childEnv); mode != "" {
		if err := childMain(ctx, c, mode); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
		return 0
	}
	if c.update {
		if err := update(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "bench: update:", err)
			return 1
		}
		return 0
	}
	ws := workloads()
	if c.workload != "all" {
		w, err := workloadByName(c.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	if c.repeat > 0 {
		err = repeat(ctx, ws, c.o, c.repeat, &res)
	} else {
		for _, w := range ws {
			var rep *report
			if rep, err = measure(ctx, w, c.o); err != nil {
				break
			}
			printReport(w, c.o, rep)
			res.add(w.name, len(ws) > 1, rep, defs(c.o.trace))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func defs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// childMain is a re-executed child: set up, run unless only timing
// set-up, and write the report as the one line on stdout.
func childMain(ctx context.Context, c config, mode string) error {
	w, err := workloadByName(c.workload)
	if err != nil {
		return err
	}
	g, err := loadGoldens(goldenJSON)
	if err != nil {
		return err
	}
	rep, err := runChild(ctx, w, c.o, mode, c.profile, &checker{g: g})
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// setupSamples is how many set-up-only children measure surrounds the
// measuring child with on each side. Spread over the run, the five
// set-up times sample the host at different moments, so one slow stretch
// of a shared host moves at most some of them.
const setupSamples = 2

// measure makes one run of w: the measuring child, with set-up-only
// children before and after it; set-up time is the median over all of
// them. A traced run skips the set-up samples and attributes the
// measuring child's CPU profile instead.
func measure(ctx context.Context, w *workload, o options) (*report, error) {
	var setups []float64
	sampleSetup := func() error {
		for i := 0; i < setupSamples && !o.trace; i++ {
			_, _, setup, err := spawn(ctx, w, o, "setup", "")
			if err != nil {
				return err
			}
			setups = append(setups, setup)
		}
		return nil
	}
	if err := sampleSetup(); err != nil {
		return nil, err
	}
	profile := ""
	if o.trace {
		dir, err := filepath.Abs(filepath.Join(buildDir, "trace"))
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		profile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.pprof", w.name, o.seed))
	}
	rep, ru, setup, err := spawn(ctx, w, o, "run", profile)
	if err != nil {
		return nil, err
	}
	if err := sampleSetup(); err != nil {
		return nil, err
	}
	if !o.trace {
		rep.Metrics["setup_s"] = median(append(setups, setup))
		rep.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
		return rep, nil
	}
	stacks, err := readProfile(ctx, profile)
	if err != nil {
		return nil, err
	}
	for k, v := range shares(stacks) {
		rep.Metrics[k] = v
	}
	return rep, nil
}

// spawn re-executes this program as a child and returns its report, its
// resource usage, and its set-up time: from just before the exec until
// the child reported set-up done.
func spawn(ctx context.Context, w *workload, o options, mode, profile string) (*report, *syscall.Rusage, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	trace := 0
	if o.trace {
		trace = 1
	}
	args := []string{
		"--workload", w.name,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
		"-quick=" + strconv.FormatBool(o.quick),
		"-profile", profile,
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+mode)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, nil, 0, fmt.Errorf("%s %s child: %w", w.name, mode, err)
	}
	var rep report
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rep); err != nil {
		return nil, nil, 0, fmt.Errorf("%s %s child: report: %w", w.name, mode, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, nil, 0, errors.New("no child resource usage on this platform")
	}
	return &rep, ru, float64(rep.ReadyNS-start.UnixNano()) / 1e9, nil
}

// metricValue is one metric in the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// add folds one workload's report in. With several workloads in one
// invocation, metric names carry a "<workload>/" prefix.
func (r *result) add(name string, prefix bool, rep *report, ds []metricDef) {
	r.Correct = r.Correct && rep.correct()
	r.Attempted += rep.Attempted
	r.Failed += rep.Failed
	for _, d := range ds {
		key := d.name
		if prefix {
			key = name + "/" + d.name
		}
		r.Metrics[key] = metricValue{Value: rep.Metrics[d.name], Unit: d.unit}
	}
}

func printReport(w *workload, o options, rep *report) {
	mode := "end to end"
	if o.trace {
		mode = "traced, per layer"
	}
	fmt.Printf("%s  seed %d  %gs  %s\n  %s\n", w.name, o.seed, o.seconds, mode, w.why)
	for _, d := range defs(o.trace) {
		fmt.Printf("  %-30s %14.4f %s\n", d.name, rep.Metrics[d.name], d.unit)
	}
	fmt.Printf("  ops: %d attempted, %d failed; latency at p%.1f of %d ops: %.4f ms\n", rep.Attempted, rep.Failed, rep.TailPct, rep.Ops, rep.TailMS)
	fmt.Printf("  outputs: %d matched a recorded digest, %d had none and were checked against invariants only\n", rep.Verified, rep.Unverified)
	for _, p := range rep.Problems {
		fmt.Println("  FAILED:", p)
	}
}
