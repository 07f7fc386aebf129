package sample

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"loosesim/internal/pipeline"
)

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// smallCfg is testCfg cut down far enough for `go test -race`.
func smallCfg(t *testing.T, bench string, dra bool) pipeline.Config {
	t.Helper()
	cfg := testCfg(t, bench, dra)
	cfg.WarmupInstructions = 2_000
	cfg.MeasureInstructions = 9_000
	return cfg
}

func estimateJSON(t *testing.T, est *Estimate) string {
	t.Helper()
	b, err := json.Marshal(est)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// serialWindows runs every window of the chain one after another, in
// window order: the sampler before it was pipelined.
func serialWindows(t *testing.T, cfg pipeline.Config, o Options) []*pipeline.Result {
	t.Helper()
	ckpts, err := Checkpoints(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := WindowConfig(cfg, o)
	results := make([]*pipeline.Result, len(ckpts))
	for i, ckpt := range ckpts {
		if results[i], err = RunWindow(context.Background(), wcfg, ckpt); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	return results
}

// TestRunMatchesSerialWindows is the determinism gate of the pipelined
// sampler: whatever GOMAXPROCS is, and in whatever order the windows
// finish, Run's estimate is byte-identical to Merge over a serial
// RunWindow loop.
func TestRunMatchesSerialWindows(t *testing.T) {
	cases := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"gcc/base", smallCfg(t, "gcc", false)},
		{"swim/dra", smallCfg(t, "swim", true)},
	}
	for _, c := range cases {
		// 3 windows is below GOMAXPROCS 8, 9 is above every width.
		for _, windows := range []int{3, 9} {
			o := Options{Windows: windows, WindowInstructions: 500, DetailedWarmup: 500}
			est, err := Merge(serialWindows(t, c.cfg, o), o, c.cfg.MeasureInstructions)
			if err != nil {
				t.Fatal(err)
			}
			want := estimateJSON(t, est)
			for _, procs := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/windows=%d/procs=%d", c.name, windows, procs), func(t *testing.T) {
					setProcs(t, procs)
					est, err := Run(context.Background(), c.cfg, o)
					if err != nil {
						t.Fatal(err)
					}
					if got := estimateJSON(t, est); got != want {
						t.Fatalf("pipelined estimate differs from serial windows:\ngot:  %s\nwant: %s", got, want)
					}
				})
			}
			// Hold each window back in proportion to how early it is, so
			// windows finish in reverse index order.
			t.Run(fmt.Sprintf("%s/windows=%d/reversed", c.name, windows), func(t *testing.T) {
				setProcs(t, 8)
				wcfg := WindowConfig(c.cfg, o)
				est, err := run(c.cfg, o, func(i int, ckpt []byte) (*pipeline.Result, error) {
					res, err := RunWindow(context.Background(), wcfg, ckpt)
					time.Sleep(time.Duration(windows-i) * 15 * time.Millisecond)
					return res, err
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := estimateJSON(t, est); got != want {
					t.Fatalf("estimate depends on window finishing order:\ngot:  %s\nwant: %s", got, want)
				}
			})
		}
	}
}

// TestRunReportsLowestFailingWindow checks the pipelined sampler fails
// exactly like the serial loop: with several windows over their cycle
// budget, Run reports the lowest-index one, wrapping its cause, even
// when a later window's failure arrives first. No goroutine outlives Run.
func TestRunReportsLowestFailingWindow(t *testing.T) {
	setProcs(t, 4)
	baseline := runtime.NumGoroutine()
	cfg := smallCfg(t, "gcc", false)
	o := Options{Windows: 8, WindowInstructions: 500, DetailedWarmup: 500}

	// Budget each window at the median window's cycle count, so the
	// slower half of the windows fail.
	results := serialWindows(t, cfg, o)
	cycles := make([]int64, len(results))
	for i, res := range results {
		cycles[i] = res.TotalCycles
	}
	slices.Sort(cycles)
	cfg.CycleBudget = cycles[len(cycles)/2]

	// The serial loop under that budget: the windows that fail, and the
	// error it stops at.
	ckpts, err := Checkpoints(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := WindowConfig(cfg, o)
	var failing []int
	var want string
	for i, ckpt := range ckpts {
		if _, err := RunWindow(context.Background(), wcfg, ckpt); err != nil {
			if failing == nil {
				want = fmt.Sprintf("sample: window %d: %v", i, err)
			}
			failing = append(failing, i)
		}
	}
	if len(failing) < 2 {
		t.Fatalf("budget %d trips windows %v, want at least two", cfg.CycleBudget, failing)
	}
	lowest := failing[0]

	check := func(t *testing.T, est *Estimate, err error) {
		t.Helper()
		if est != nil || err == nil {
			t.Fatalf("Run = %v, %v; want an error", est, err)
		}
		if !errors.Is(err, pipeline.ErrCycleBudget) {
			t.Fatalf("error %q does not wrap pipeline.ErrCycleBudget", err)
		}
		if err.Error() != want {
			t.Fatalf("error %q, want the serial loop's %q", err, want)
		}
	}
	t.Run("run", func(t *testing.T) {
		est, err := Run(context.Background(), cfg, o)
		check(t, est, err)
	})
	// The lowest failing window waits to run until a later one has failed,
	// so a sampler that keeps the first error to arrive reports the wrong
	// window.
	t.Run("later-failure-first", func(t *testing.T) {
		var once sync.Once
		laterFailed := make(chan struct{})
		est, err := run(cfg, o, func(i int, ckpt []byte) (*pipeline.Result, error) {
			if i == lowest {
				select {
				case <-laterFailed:
				case <-time.After(10 * time.Second):
					t.Errorf("no window after %d failed while it waited", lowest)
				}
			}
			res, err := RunWindow(context.Background(), wcfg, ckpt)
			if err != nil && i > lowest {
				once.Do(func() { close(laterFailed) })
			}
			return res, err
		})
		check(t, est, err)
	})
	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Run(ctx, cfg, o); !errors.Is(err, context.Canceled) {
			t.Fatalf("Run with a cancelled context = %v, want context.Canceled", err)
		}
	})

	// A finished window's goroutine may still be exiting as Run returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after Run returned, baseline %d", n, baseline)
	}
}

// TestZeroSamplingPeriodRejected: more windows than measured instructions
// would place every window at the same instruction and report N copies of
// one window with a zero-width confidence interval.
func TestZeroSamplingPeriodRejected(t *testing.T) {
	cfg := testCfg(t, "gcc", false)
	cfg.MeasureInstructions = 5
	o := Options{Windows: 8, WindowInstructions: 500, DetailedWarmup: 500}
	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted 8 windows over 5 measured instructions", what)
		}
		if msg := err.Error(); !strings.Contains(msg, "8 windows") || !strings.Contains(msg, "5 measured instructions") {
			t.Fatalf("%s error %q does not name both values", what, msg)
		}
	}
	_, err := Checkpoints(cfg, o)
	wantErr("Checkpoints", err)
	_, err = Run(context.Background(), cfg, o)
	wantErr("Run", err)
}
