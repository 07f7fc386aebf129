// Package loosesim is a cycle-level reproduction of "Loose Loops Sink
// Chips" (Borch, Tune, Manne, Emer — HPCA 2002): an 8-wide clustered SMT
// out-of-order processor simulator built to study micro-architectural
// loops — the branch resolution loop, the load resolution loop, and the
// operand resolution loop introduced by the paper's contribution, the
// Distributed Register Algorithm (DRA).
//
// The package is a thin facade over the internal simulator. Typical use:
//
//	cfg, _ := loosesim.BaseMachine("gcc", 3)
//	res, _ := loosesim.Run(cfg)
//	fmt.Println(res.IPC())
//
// Configurations are plain structs; adjust any field before Run. The
// DRAMachine/BaseMachine constructors implement the paper's Section 6
// latency arithmetic for a given register file access time.
package loosesim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"loosesim/internal/obs"
	"loosesim/internal/pipeline"
	"loosesim/internal/workload"
)

// Config describes one simulation; see pipeline.Config for all fields.
type Config = pipeline.Config

// Result is a simulation's measurement-window outcome.
type Result = pipeline.Result

// Load-recovery policies for the load resolution loop.
const (
	LoadReissue = pipeline.LoadReissue
	LoadRefetch = pipeline.LoadRefetch
	LoadStall   = pipeline.LoadStall
)

// Memory dependence loop policies.
const (
	MemDepStoreWait    = pipeline.MemDepStoreWait
	MemDepBlind        = pipeline.MemDepBlind
	MemDepConservative = pipeline.MemDepConservative
)

// CycleStack is the cycle-accounting breakdown attached to every Result.
type CycleStack = pipeline.CycleStack

// Benchmarks returns every available benchmark name in the paper's plotting
// order: four integer, six floating point, three SMT pairs.
func Benchmarks() []string { return workload.PaperOrder() }

// Workload looks up a benchmark by name.
func Workload(name string) (workload.Workload, error) { return workload.ByName(name) }

// DefaultMachine returns the paper's base machine (DEC-IQ 5, IQ-EX 5,
// 3-cycle register file) running the named benchmark.
func DefaultMachine(bench string) (Config, error) {
	wl, err := workload.ByName(bench)
	if err != nil {
		return Config{}, err
	}
	return pipeline.DefaultConfig(wl), nil
}

// BaseMachine returns the base (non-DRA) machine for a register file access
// latency of regReadLat cycles: IQ-EX = 2 + regReadLat, DEC-IQ = 5.
func BaseMachine(bench string, regReadLat int) (Config, error) {
	wl, err := workload.ByName(bench)
	if err != nil {
		return Config{}, err
	}
	return pipeline.BaseConfigRF(wl, regReadLat), nil
}

// DRAMachine returns the DRA machine for a register file access latency of
// regReadLat cycles: IQ-EX = 3, DEC-IQ = max(5, 2 + regReadLat).
func DRAMachine(bench string, regReadLat int) (Config, error) {
	wl, err := workload.ByName(bench)
	if err != nil {
		return Config{}, err
	}
	return pipeline.DRAConfigRF(wl, regReadLat), nil
}

// Observability. Attach sinks to Config.Events / Config.Intervals before
// Run; probes are strictly passive and never change simulation outcomes.
// See the internal/obs package documentation for the event and interval
// schemas.
type (
	// Event is one loose-loop traversal record.
	Event = obs.Event
	// EventKind names the loop a traversal belongs to.
	EventKind = obs.EventKind
	// EventSink receives loop-event records in cycle order.
	EventSink = obs.EventSink
	// EventFunc adapts a function to EventSink.
	EventFunc = obs.EventFunc
	// Interval is one sample of the per-interval time series.
	Interval = obs.Interval
	// IntervalSink receives the interval time series in index order.
	IntervalSink = obs.IntervalSink
	// IntervalFunc adapts a function to IntervalSink.
	IntervalFunc = obs.IntervalFunc
	// LoopDelays aggregates events into per-loop delay histograms.
	LoopDelays = obs.LoopDelays
)

// NewLoopDelays returns an in-process per-loop delay aggregator (bound <= 0
// selects the default histogram bound).
func NewLoopDelays(bound int) *LoopDelays { return obs.NewLoopDelays(bound) }

// ErrCycleBudget is returned by RunContext when Config.CycleBudget expires
// before the measurement window completes.
var ErrCycleBudget = pipeline.ErrCycleBudget

// Run executes one simulation to completion.
func Run(cfg Config) (*Result, error) {
	m, err := pipeline.New(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run(), nil
}

// RunContext executes one simulation under ctx: cancellation (or a
// deadline) aborts the run with ctx.Err() within a few thousand simulated
// cycles, and a positive Config.CycleBudget aborts it with ErrCycleBudget.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	m, err := pipeline.New(cfg)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// runOne builds and runs a single batch entry. It is a variable so the
// batch tests can wrap it to observe construction/teardown (e.g. to assert
// the pool's peak live-machine count) without touching the pool itself.
var runOne = func(ctx context.Context, cfg Config) (*Result, error) {
	return RunContext(ctx, cfg)
}

// RunAll executes a batch of independent simulations on a bounded worker
// pool and returns results in input order. Every configuration is
// validated up front, so a bad config fails the batch before any
// simulation starts; each Machine is constructed only when a worker picks
// its config up, so peak memory and goroutine count are O(GOMAXPROCS)
// regardless of batch size.
func RunAll(cfgs []Config) ([]*Result, error) {
	return RunAllContext(context.Background(), cfgs)
}

// RunAllContext is RunAll under a context: cancelling ctx aborts running
// simulations cooperatively and skips unstarted ones, and the batch
// returns the first error in input order. A successful batch has every
// result non-nil, in input order.
func RunAllContext(ctx context.Context, cfgs []Config) ([]*Result, error) {
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
	}
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = fmt.Errorf("config %d: %w", i, err)
					continue
				}
				res, err := runOne(ctx, cfgs[i])
				if err != nil {
					errs[i] = fmt.Errorf("config %d: %w", i, err)
					continue
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
