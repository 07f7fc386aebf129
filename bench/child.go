package main

import (
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"loosesim/internal/pipeline"
	"loosesim/internal/serve"
	wl "loosesim/internal/workload"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports; BENCHMARK.json lists
// the same names with their bounds. An op is one batch of full runs
// (full-*), one sampled cell (sampled-fig8) or one job submission
// (served-fig8).
var endToEnd = []metricDef{
	{"kips", "kinst/s"},      // simulated kilo-instructions per host second
	{"latency_p50_ms", "ms"}, // median time until an op's result is in hand
	{"setup_s", "s"},         // child start until the first timed op, median of five children
	{"peak_rss_mb", "MB"},    // the measuring child's maximum resident set
}

// perLayer are the metrics a traced run reports. Every workload reports
// every one; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"traced.kips", "kinst/s"},
	{"traced.latency_p50_ms", "ms"},
	{"traced.latency_tail_ms", "ms"},
	{"pipeline.new_ms", "ms"},
	{"pipeline.ns_per_cycle", "ns"},
	{"pipeline.allocs_per_kinst", "count"},
	{"pipeline.bytes_per_kinst", "B"},
	{"pipeline.fetched_per_retired", "ratio"},
	{"pipeline.iq_occupancy", "count"},
	{"share.issue", "%"},
	{"share.fetch", "%"},
	{"share.process_events", "%"},
	{"share.rename", "%"},
	{"share.retire", "%"},
	{"share.reclaim_dead", "%"},
	{"share.attribute_cycle", "%"},
	{"share.memdep", "%"},
	{"share.step", "%"},
	{"share.step_covered", "%"},
	{"iq.share", "%"},
	{"iq.select_share", "%"},
	{"iq.retained_share", "%"},
	{"workload.share", "%"},
	{"workload.next_ns", "ns"},
	{"bpred.share", "%"},
	{"mem.share", "%"},
	{"mem.warm_share", "%"},
	{"core.share", "%"},
	{"regfile.share", "%"},
	{"fwd.share", "%"},
	{"uop.share", "%"},
	{"runtime.gc_share", "%"},
	{"loosesim.cpu_util", "%"},
	{"sample.warm_ns_per_inst", "ns"},
	{"sample.checkpoints_share", "%"},
	{"sample.restore_share", "%"},
	{"sample.window_share", "%"},
	{"sample.merge_share", "%"},
	{"sample.ipc_err_pct", "%"},
	{"sample.err_ratio", "ratio"},
	{"snap.share", "%"},
	{"snap.restore_ms", "ms"},
	{"snap.checkpoint_kb", "KB"},
	{"serve.key_us", "us"},
	{"serve.hit_ratio", "ratio"},
	{"serve.refused", "count"},
	{"serve.queue_wait_share", "%"},
	{"serve.run_share", "%"},
	{"serve.http_share", "%"},
}

// report is what a child sends its parent: one JSON line on stdout.
type report struct {
	// ReadyNS is the wall clock, in Unix nanoseconds, when set-up ended.
	ReadyNS    int64              `json:"ready_ns"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Verified   int                `json:"verified"`
	Unverified int                `json:"unverified"`
	Problems   []string           `json:"problems,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	// TailMS is the op latency at the highest percentile with at least ten
	// ops beyond it, TailPct that percentile, and Ops the number of ops.
	TailMS  float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_pct"`
	Ops     int     `json:"ops"`
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// usage is a snapshot of the process's host-side counters.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + system
	gcCPU      float64       // seconds
	totalCPU   float64       // seconds, as runtime/metrics accounts it
	allocObjs  uint64
	allocBytes uint64
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	u := usage{wall: time.Now(), cpu: processCPU()}
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	u.gcCPU = s[0].Value.Float64()
	u.totalCPU = s[1].Value.Float64()
	u.allocObjs = s[2].Value.Uint64()
	u.allocBytes = s[3].Value.Uint64()
	return u
}

// runChild sets a workload up, and unless mode is "setup", runs its timed
// phase and reduces it to metrics. A traced run writes a CPU profile of
// the timed phase to profile; the parent attributes it.
func runChild(ctx context.Context, w *workload, o options, mode, profile string, chk *checker) (*report, error) {
	e := &env{o: o, chk: chk}
	if o.trace {
		e.spans = newSpanLog()
	}
	run, err := w.prepare(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	rep := &report{ReadyNS: time.Now().UnixNano(), Metrics: map[string]float64{}}
	if mode == "setup" {
		return rep, nil
	}
	var prof *os.File
	if profile != "" {
		if prof, err = os.Create(profile); err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	before := readUsage()
	ph, err := run(ctx, e)
	after := readUsage()
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep.Attempted, rep.Failed = ph.attempted, ph.failed
	rep.Verified, rep.Unverified, rep.Problems = chk.verified, chk.unverified, chk.problems
	rep.Ops = len(ph.latencies)
	p50 := ph.p50()
	rep.TailMS, rep.TailPct = tail(ph.latencies)
	kips := ph.kips()
	if !o.trace {
		rep.Metrics["kips"] = kips
		rep.Metrics["latency_p50_ms"] = p50
		return rep, nil
	}
	m := rep.Metrics
	for k, v := range ph.layer {
		m[k] = v
	}
	m["traced.kips"] = kips
	m["traced.latency_p50_ms"] = p50
	m["traced.latency_tail_ms"] = rep.TailMS
	if c := e.spans.counted("cycles"); c > 0 {
		m["pipeline.ns_per_cycle"] = float64(e.spans.sum("run")) / float64(c)
	}
	if ph.kinst > 0 {
		m["pipeline.allocs_per_kinst"] = float64(after.allocObjs-before.allocObjs) / ph.kinst
		m["pipeline.bytes_per_kinst"] = float64(after.allocBytes-before.allocBytes) / ph.kinst
	}
	var fetched, retired uint64
	var occ, cycles float64
	for _, r := range ph.results {
		fetched += r.Counters.Fetched
		retired += r.Counters.Retired
		occ += r.IQOccupancy * float64(r.Counters.Cycles)
		cycles += float64(r.Counters.Cycles)
	}
	if retired > 0 {
		m["pipeline.fetched_per_retired"] = float64(fetched) / float64(retired)
	}
	if cycles > 0 {
		m["pipeline.iq_occupancy"] = occ / cycles
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["runtime.gc_share"] = 100 * (after.gcCPU - before.gcCPU) / cpu
	}
	m["loosesim.cpu_util"] = 100 * float64(after.cpu-before.cpu) / (float64(after.wall.Sub(before.wall)) * float64(ph.workers))
	probes, err := probeLayers(ph.configs, o.quick)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m[k] = v
	}
	// A layer the workload does not exercise reads 0; the profile shares
	// are added by the parent.
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	return rep, nil
}

// probeLayers times single calls into layers' public functions on the
// workload's machines, after the timed phase: constructing a machine,
// functional warming, checkpoint and restore, the serve cache key, and
// instruction generation.
func probeLayers(cfgs []pipeline.Config, quick bool) (map[string]float64, error) {
	n := uint64(200_000)
	if quick {
		n = 20_000
	}
	var news, warms, restores, kbs, keys, nexts []float64
	for _, cfg := range cfgs {
		for r := 0; r < 3; r++ {
			t := time.Now()
			if _, err := pipeline.New(cfg); err != nil {
				return nil, err
			}
			news = append(news, float64(time.Since(t))/1e6)
		}
		m, err := pipeline.New(cfg)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		m.WarmForward(n)
		warms = append(warms, float64(time.Since(t))/float64(n))
		ckpt, err := m.Snapshot()
		if err != nil {
			return nil, err
		}
		kbs = append(kbs, float64(len(ckpt))/1024)
		t = time.Now()
		if _, err := pipeline.Restore(cfg, ckpt); err != nil {
			return nil, err
		}
		restores = append(restores, float64(time.Since(t))/1e6)
		const keyCalls = 100
		t = time.Now()
		for i := 0; i < keyCalls; i++ {
			if _, err := serve.ConfigKey(cfg); err != nil {
				return nil, err
			}
		}
		keys = append(keys, float64(time.Since(t))/1e3/keyCalls)
		for _, p := range cfg.Workload.Threads {
			g := wl.NewGenerator(p, cfg.Seed, 0)
			t = time.Now()
			for i := uint64(0); i < n; i++ {
				g.Next()
			}
			nexts = append(nexts, float64(time.Since(t))/float64(n))
		}
	}
	return map[string]float64{
		"pipeline.new_ms":         median(news),
		"sample.warm_ns_per_inst": median(warms),
		"snap.restore_ms":         median(restores),
		"snap.checkpoint_kb":      median(kbs),
		"serve.key_us":            median(keys),
		"workload.next_ns":        median(nexts),
	}, nil
}
