// Package sample implements SMARTS-style sampled simulation on top of
// the machine checkpoints in internal/pipeline. Instead of simulating a
// workload's full measured region cycle-accurately, a sampler carries
// long-lived microarchitectural state (cache contents, predictor
// training) forward with cheap functional warming, drops a checkpoint at
// the start of each of N evenly spaced measurement windows, and runs only
// those windows — a short detailed warmup to refill the pipeline, then W
// measured instructions — through the cycle-accurate model. Per-window
// counters merge into a whole-run estimate with a confidence interval
// from the dispersion across windows.
//
// Run pipelines the two stages: each window starts on its own goroutine
// as soon as the chain has taken its checkpoint, at most GOMAXPROCS
// windows run at once (so at most GOMAXPROCS+1 checkpoints are alive),
// and the results merge in window order, so the estimate does not depend
// on GOMAXPROCS or on the order in which windows finish.
package sample

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"loosesim/internal/pipeline"
	"loosesim/internal/stats"
)

// Options sizes a sampled run.
type Options struct {
	// Windows is N, the number of measurement windows spread evenly over
	// the full config's measured region.
	Windows int
	// WindowInstructions is W, the instructions measured per window.
	WindowInstructions uint64
	// DetailedWarmup is the cycle-accurate warmup run before each window
	// to refill the pipeline, IQ, and in-flight state that functional
	// warming does not model. Any depth is valid, zero included.
	DetailedWarmup uint64
}

// DefaultOptions matches the SMARTS guidance of many small windows: the
// estimate's standard error shrinks as 1/sqrt(N), so N buys accuracy far
// faster than W.
func DefaultOptions() Options {
	return Options{Windows: 20, WindowInstructions: 2_000, DetailedWarmup: 16_000}
}

// validate rejects options that cannot produce an estimate.
func (o Options) validate() error {
	if o.Windows <= 0 {
		return fmt.Errorf("sample: Windows %d, need > 0", o.Windows)
	}
	if o.WindowInstructions == 0 {
		return fmt.Errorf("sample: WindowInstructions 0, need > 0")
	}
	return nil
}

// WindowConfig derives the per-window detailed configuration from the
// full-run configuration: the same Stream, Timing and Functional parts, a
// short Run, and a Host with no observability sinks that keeps the cycle
// budget. Its ConfigDigest equals the full config's, so checkpoints taken
// on the warming chain restore under it.
func WindowConfig(cfg pipeline.Config, o Options) pipeline.Config {
	w := cfg
	w.Run = pipeline.Run{WarmupInstructions: o.DetailedWarmup, MeasureInstructions: o.WindowInstructions}
	w.Host = pipeline.Host{CycleBudget: cfg.CycleBudget}
	return w
}

// eachCheckpoint runs the functional-warming chain: one machine
// fast-forwards through the workload, pausing to snapshot at each window's
// warmup start, and hands checkpoint i to yield as soon as it is taken.
// The chain costs one pass of cache/predictor updates over the stream —
// O(total instructions), but a small constant per instruction compared to
// cycle-accurate simulation. An error from yield stops the chain and is
// returned as is.
func eachCheckpoint(cfg pipeline.Config, o Options, yield func(i int, ckpt []byte) error) error {
	if err := o.validate(); err != nil {
		return err
	}
	period := cfg.MeasureInstructions / uint64(o.Windows)
	if period == 0 {
		// Every window would start at the same instruction: N copies of
		// one window and a confidence interval of zero width.
		return fmt.Errorf("sample: %d windows over %d measured instructions leave a zero sampling period, need Windows <= MeasureInstructions",
			o.Windows, cfg.MeasureInstructions)
	}
	chain, err := pipeline.New(cfg)
	if err != nil {
		return err
	}
	pos := uint64(0)
	for i := 0; i < o.Windows; i++ {
		measureStart := cfg.WarmupInstructions + uint64(i)*period
		warmStart := uint64(0)
		if measureStart > o.DetailedWarmup {
			warmStart = measureStart - o.DetailedWarmup
		}
		if warmStart > pos {
			chain.WarmForward(warmStart - pos)
			pos = warmStart
		}
		ckpt, err := chain.Snapshot()
		if err != nil {
			return err
		}
		if err := yield(i, ckpt); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoints collects every checkpoint of the warming chain, in window
// order.
func Checkpoints(cfg pipeline.Config, o Options) ([][]byte, error) {
	var ckpts [][]byte
	err := eachCheckpoint(cfg, o, func(_ int, ckpt []byte) error {
		ckpts = append(ckpts, ckpt)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ckpts, nil
}

// RunWindow restores one checkpoint under the window configuration and
// runs it: detailed warmup, then the measured window.
func RunWindow(ctx context.Context, wcfg pipeline.Config, ckpt []byte) (*pipeline.Result, error) {
	m, err := pipeline.Restore(wcfg, ckpt)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// Interval is a mean with a 95% confidence half-width (normal
// approximation: 1.96 · s/sqrt(n) over per-window values).
type Interval struct {
	Mean float64
	CI95 float64
}

// RelCI returns the half-width relative to the mean — the figure SMARTS
// quotes as sampling error.
func (iv Interval) RelCI() float64 {
	if iv.Mean == 0 {
		return 0
	}
	return iv.CI95 / math.Abs(iv.Mean)
}

// MeanCI computes the mean and 95% confidence half-width of vals.
func MeanCI(vals []float64) Interval {
	n := float64(len(vals))
	if n == 0 {
		return Interval{}
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / n
	if n < 2 {
		return Interval{Mean: mean}
	}
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	s := math.Sqrt(ss / (n - 1))
	return Interval{Mean: mean, CI95: 1.96 * s / math.Sqrt(n)}
}

// Estimate is the whole-run estimate merged from per-window results.
type Estimate struct {
	// Windows and WindowInstructions echo the options that produced it.
	Windows            int
	WindowInstructions uint64
	// TotalInstructions is the full run's measured-instruction count the
	// estimate extrapolates to.
	TotalInstructions uint64
	// Counters is the field-wise sum over windows. Rates derived from it
	// are ratio-of-sums estimators; absolute event counts scale by
	// Scale() to whole-run magnitudes.
	Counters pipeline.Counters
	// Stack is the summed cycle-accounting stack.
	Stack pipeline.CycleStack
	// OperandGap is the merged operand-gap histogram.
	OperandGap *stats.Histogram
	// Metrics holds, per derived metric, the mean over windows with its
	// 95% confidence half-width.
	Metrics map[string]Interval
}

// Scale is the extrapolation factor from measured to whole-run event
// counts: TotalInstructions / (Windows · WindowInstructions).
func (e *Estimate) Scale() float64 {
	return float64(e.TotalInstructions) / float64(uint64(e.Windows)*e.WindowInstructions)
}

// Merge combines per-window results, in window order, into a whole-run
// estimate. Every result must have run the window length o names.
func Merge(results []*pipeline.Result, o Options, totalInstructions uint64) (*Estimate, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("sample: no window results to merge")
	}
	e := &Estimate{
		Windows:            len(results),
		WindowInstructions: o.WindowInstructions,
		TotalInstructions:  totalInstructions,
		OperandGap:         stats.NewHistogram(1),
		Metrics:            make(map[string]Interval),
	}
	for _, res := range results {
		if res == nil {
			return nil, fmt.Errorf("sample: nil window result")
		}
		e.Counters = e.Counters.Add(res.Counters)
		e.Stack = e.Stack.Add(res.Cycles)
		e.OperandGap.Merge(res.OperandGap)
	}
	vals := make([]float64, len(results))
	for _, met := range Metrics() {
		for i, res := range results {
			vals[i] = met.Eval(res.Counters)
		}
		e.Metrics[met.Name] = MeanCI(vals)
	}
	return e, nil
}

// Run is the single-process sampler: warm, checkpoint, run every window,
// merge. It is a two-stage pipeline. The warming chain (eachCheckpoint)
// hands on each checkpoint as soon as it is taken, and that checkpoint's
// detailed window starts at once on a goroutine of its own, overlapping
// the rest of the chain. Checkpoints carry the workload generators' full
// state, so windows need nothing from one another. At most
// runtime.GOMAXPROCS(0) windows run at once, so at most GOMAXPROCS+1
// checkpoints are alive: one per running window and the one the chain
// has just taken. Each window fills its own result slot and Merge runs
// over the slots in window order, so the estimate is byte-identical to
// running the windows one after another.
//
// Errors are the serial loop's. A chain error wins over any window error.
// Once a window fails the chain stops, the windows in flight finish, and
// Run returns the lowest-index failing window's error. Windows start in
// index order, so that is the window a serial loop would have stopped at.
// Cancelling ctx reaches every running window.
func Run(ctx context.Context, cfg pipeline.Config, o Options) (*Estimate, error) {
	wcfg := WindowConfig(cfg, o)
	return run(cfg, o, func(_ int, ckpt []byte) (*pipeline.Result, error) {
		return RunWindow(ctx, wcfg, ckpt)
	})
}

// errStopped ends the warming chain early once a window has failed.
var errStopped = errors.New("sample: chain stopped after a failed window")

// run is Run with the window step as a parameter, so tests can choose the
// order in which windows finish.
func run(cfg pipeline.Config, o Options, window func(i int, ckpt []byte) (*pipeline.Result, error)) (*Estimate, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	results := make([]*pipeline.Result, o.Windows)
	errs := make([]error, o.Windows)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var failed atomic.Bool
	var wg sync.WaitGroup
	err := eachCheckpoint(cfg, o, func(i int, ckpt []byte) error {
		slots <- struct{}{}
		if failed.Load() {
			<-slots
			return errStopped
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = window(i, ckpt)
			if errs[i] != nil {
				failed.Store(true)
			}
			<-slots
		}()
		return nil
	})
	wg.Wait()
	if err != nil && err != errStopped {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sample: window %d: %w", i, err)
		}
	}
	return Merge(results, o, cfg.MeasureInstructions)
}
