// Command loosim runs one simulation of the loose-loops machine and prints
// its statistics.
//
// Usage:
//
//	loosim -bench gcc -deciq 5 -iqex 5 -regread 3
//	loosim -bench swim -dra
//	loosim -bench apsi-swim -load stall -inst 1000000
//	loosim -bench apsi -dra -intervals iv.jsonl -events ev.jsonl
//	loosim -bench gcc -sample 20 -window 2000
//	loosim -validate -inst 120000 -warmup 40000
//
// The observability flags attach internal/obs probes: -intervals writes a
// per-interval time series and -events the loop-event stream, both as
// JSONL. Aggregate either file, or both, with cmd/loostrace. Probes never
// change simulation outcomes.
//
// -sample N runs a SMARTS-style sampled simulation (internal/sample): a
// functional-warming chain carries cache and predictor state between N
// measurement windows of -window instructions, each preceded by a
// -samplewarm detailed warmup, and the merged estimate is reported with
// per-metric confidence intervals. -validate runs sampled-vs-full over
// the paper's figure grid and exits nonzero if any metric leaves its
// declared error bound (see internal/sample.Metrics).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"loosesim/internal/obs"
	"loosesim/internal/pipeline"
	"loosesim/internal/sample"
	"loosesim/internal/workload"
)

// hostProfile is the simulator's self-measured throughput: simulated work
// per host-second over the whole run (warmup included). This is the one
// place wall-clock time is allowed — internal/ stays pure under simlint's
// noclock analyzer.
type hostProfile struct {
	WallSeconds  float64
	KIPS         float64 // retired kilo-instructions per host second
	CyclesPerSec float64 // simulated cycles per host second
}

func profileHost(res *pipeline.Result, wall time.Duration) hostProfile {
	h := hostProfile{WallSeconds: wall.Seconds()}
	if h.WallSeconds > 0 {
		h.KIPS = float64(res.TotalRetired) / 1000 / h.WallSeconds
		h.CyclesPerSec = float64(res.TotalCycles) / h.WallSeconds
	}
	return h
}

// printJSON emits a machine-readable report of the run.
func printJSON(cfg pipeline.Config, res *pipeline.Result, host hostProfile) {
	pr, fw, crc, miss := res.OperandShare()
	report := struct {
		Benchmark string
		DecIQLat  int
		IQExLat   int
		RegRead   int
		DRA       bool
		LoadPol   string
		MemDepPol string
		IPC       float64
		Counters  pipeline.Counters
		Cycles    pipeline.CycleStack
		Operand   struct{ PreRead, Forwarded, CRC, Miss float64 }
		IQ        struct{ Occupancy, Retained float64 }
		PerThread []uint64
		Host      hostProfile
	}{
		Benchmark: res.Benchmark,
		DecIQLat:  cfg.DecIQLat,
		IQExLat:   cfg.IQExLat,
		RegRead:   cfg.RegReadLat,
		DRA:       cfg.UseDRA,
		LoadPol:   cfg.LoadPolicy.String(),
		MemDepPol: cfg.MemDep.String(),
		IPC:       res.IPC(),
		Counters:  res.Counters,
		Cycles:    res.Cycles,
		PerThread: res.RetiredPerThread,
		Host:      host,
	}
	report.Operand.PreRead, report.Operand.Forwarded, report.Operand.CRC, report.Operand.Miss = pr, fw, crc, miss
	report.IQ.Occupancy, report.IQ.Retained = res.IQOccupancy, res.IQRetained
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		log.Fatal(err)
	}
}

// verifyStreams checks every observability output for a latched error
// once the run completes. Any truncated stream — including an error that
// latches only during the final Flush, after the last mid-run batch — must
// fail the run: main exits nonzero on a non-nil return. Nil arguments are
// streams that were never attached.
func verifyStreams(evw *obs.RingWriter, ivw *obs.IntervalJSONL, tr *pipeline.Tracer) error {
	if evw != nil {
		if err := evw.Flush(); err != nil {
			return fmt.Errorf("event stream truncated: %w", err)
		}
	}
	if ivw != nil {
		if err := ivw.Err(); err != nil {
			return fmt.Errorf("interval stream truncated: %w", err)
		}
	}
	if tr != nil {
		if err := tr.Err(); err != nil {
			return fmt.Errorf("trace truncated after %d records: %w", tr.Count(), err)
		}
	}
	return nil
}

// runSampled runs one sampled simulation and reports the merged estimate
// with per-metric confidence intervals.
func runSampled(cfg pipeline.Config, o sample.Options, asJSON bool) {
	start := time.Now()
	est, err := sample.Run(context.Background(), cfg, o)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(est); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("sampled          %d windows x %d instructions (detailed warmup %d), extrapolated to %d\n",
		est.Windows, est.WindowInstructions, o.DetailedWarmup, est.TotalInstructions)
	fmt.Printf("measured         %d instructions in %d cycles (scale %.1fx)\n",
		est.Counters.Retired, est.Counters.Cycles, est.Scale())
	for _, met := range sample.Metrics() {
		iv := est.Metrics[met.Name]
		fmt.Printf("%-17s %.4f  mean %.4f +/- %.4f (95%% CI, %.1f%% rel)\n",
			met.Name, met.Eval(est.Counters), iv.Mean, iv.CI95, 100*iv.RelCI())
	}
	fmt.Printf("cycle stack      %s\n", est.Stack)
	fmt.Printf("wall             %.2fs\n", wall.Seconds())
}

// runValidate runs sampled-vs-full convergence over the paper's figure
// grid — every single-threaded benchmark plus the m88-comp SMT pair, base
// and DRA machines at the given register-read latency — and exits nonzero
// if any metric leaves its declared error bound. Run lengths follow the
// -inst/-warmup flags, so a reduced validation (as in CI) is just shorter
// flags.
func runValidate(tmpl pipeline.Config, regRead int, o sample.Options) {
	benches := append(workload.SingleThreaded(), "m88-comp")
	var labels []string
	var cfgs []pipeline.Config
	for _, b := range benches {
		wl, err := workload.ByName(b)
		if err != nil {
			log.Fatal(err)
		}
		for _, dra := range []bool{false, true} {
			var cfg pipeline.Config
			kind := "base"
			if dra {
				cfg = pipeline.DRAConfigRF(wl, regRead)
				kind = "dra"
			} else {
				cfg = pipeline.BaseConfigRF(wl, regRead)
			}
			cfg.Seed = tmpl.Seed
			cfg.WarmupInstructions = tmpl.WarmupInstructions
			cfg.MeasureInstructions = tmpl.MeasureInstructions
			labels = append(labels, b+"/"+kind)
			cfgs = append(cfgs, cfg)
		}
	}
	start := time.Now()
	viols, err := sample.Validate(context.Background(), labels, cfgs, o)
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range viols {
		fmt.Println(v)
	}
	fmt.Printf("validated %d configs in %.1fs: %d violations\n",
		len(cfgs), time.Since(start).Seconds(), len(viols))
	if len(viols) > 0 {
		os.Exit(1)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loosim: ")

	var (
		bench    = flag.String("bench", "gcc", "benchmark name (see -list)")
		list     = flag.Bool("list", false, "list benchmarks and exit")
		dra      = flag.Bool("dra", false, "enable the distributed register algorithm")
		regRead  = flag.Int("regread", 3, "register file access latency (3, 5 or 7 in the paper)")
		decIQ    = flag.Int("deciq", 0, "override DEC-IQ latency (0 = derive from -regread/-dra)")
		iqEx     = flag.Int("iqex", 0, "override IQ-EX latency (0 = derive from -regread/-dra)")
		loadPol  = flag.String("load", "reissue", "load resolution policy: reissue, refetch, stall")
		memDep   = flag.String("memdep", "storewait", "memory dependence policy: storewait, blind, conservative")
		inst     = flag.Uint64("inst", 300_000, "instructions to measure")
		warm     = flag.Uint64("warmup", 150_000, "instructions to warm up")
		seed     = flag.Int64("seed", 1, "simulation seed")
		iqSize   = flag.Int("iq", 0, "override IQ entries (0 = default 128)")
		inflight = flag.Int("inflight", 0, "override max in-flight (0 = default 256)")
		clusters = flag.Int("clusters", 0, "override cluster count (0 = default 8)")
		verbose  = flag.Bool("v", false, "print extended statistics")
		asJSON   = flag.Bool("json", false, "emit the result as JSON")
		trace    = flag.Uint64("trace", 0, "trace the first N retired instructions to stderr")
		ivPath   = flag.String("intervals", "", "write the per-interval time series to FILE as JSONL")
		evPath   = flag.String("events", "", "write the loop-event stream to FILE as JSONL")
		ivCycles = flag.Int64("interval", 0, "cycles per observation interval (0 = default 10000)")

		sampleN  = flag.Int("sample", 0, "sampled simulation: number of measurement windows (0 = full run)")
		windowW  = flag.Uint64("window", 0, "sampled simulation: instructions measured per window (0 = default)")
		sampleDW = flag.Uint64("samplewarm", 0, "sampled simulation: detailed warmup per window (0 = default)")
		validate = flag.Bool("validate", false, "run sampled-vs-full convergence validation over the figure grid and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range workload.PaperOrder() {
			fmt.Println(n)
		}
		return
	}

	wl, err := workload.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	var cfg pipeline.Config
	if *dra {
		cfg = pipeline.DRAConfigRF(wl, *regRead)
	} else {
		cfg = pipeline.BaseConfigRF(wl, *regRead)
	}
	if *decIQ > 0 {
		cfg.DecIQLat = *decIQ
	}
	if *iqEx > 0 {
		cfg.IQExLat = *iqEx
	}
	switch *loadPol {
	case "reissue":
		cfg.LoadPolicy = pipeline.LoadReissue
	case "refetch":
		cfg.LoadPolicy = pipeline.LoadRefetch
	case "stall":
		cfg.LoadPolicy = pipeline.LoadStall
	default:
		log.Fatalf("unknown load policy %q", *loadPol)
	}
	switch *memDep {
	case "storewait":
		cfg.MemDep = pipeline.MemDepStoreWait
	case "blind":
		cfg.MemDep = pipeline.MemDepBlind
	case "conservative":
		cfg.MemDep = pipeline.MemDepConservative
	default:
		log.Fatalf("unknown memory dependence policy %q", *memDep)
	}
	cfg.Seed = *seed
	cfg.WarmupInstructions = *warm
	cfg.MeasureInstructions = *inst
	if *iqSize > 0 {
		cfg.IQEntries = *iqSize
	}
	if *inflight > 0 {
		cfg.MaxInFlight = *inflight
	}
	if *clusters > 0 {
		cfg.Clusters = *clusters
		cfg.DRA.Clusters = *clusters
	}

	sopt := sample.DefaultOptions()
	if *sampleN > 0 {
		sopt.Windows = *sampleN
	}
	if *windowW > 0 {
		sopt.WindowInstructions = *windowW
	}
	if *sampleDW > 0 {
		sopt.DetailedWarmup = *sampleDW
	}

	if *validate {
		runValidate(cfg, *regRead, sopt)
		return
	}
	if *sampleN > 0 {
		if *trace > 0 || *ivPath != "" || *evPath != "" {
			log.Fatal("sampled runs measure detached windows; -trace/-intervals/-events are full-run probes")
		}
		runSampled(cfg, sopt, *asJSON)
		return
	}

	if *trace > 0 {
		cfg.Tracer = pipeline.NewTracer(os.Stderr, *trace)
	}

	// Observability probes.
	var (
		ivw    *obs.IntervalJSONL
		ivFile *os.File
		evw    *obs.RingWriter
		evFile *os.File
	)
	if *ivPath != "" {
		ivFile, err = os.Create(*ivPath)
		if err != nil {
			log.Fatal(err)
		}
		ivw = obs.NewIntervalJSONL(ivFile)
		cfg.Intervals = ivw
		cfg.SampleInterval = *ivCycles
	}
	if *evPath != "" {
		evFile, err = os.Create(*evPath)
		if err != nil {
			log.Fatal(err)
		}
		evw = obs.NewRingWriter(evFile)
		cfg.Events = evw
	}

	m, err := pipeline.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res := m.Run()
	host := profileHost(res, time.Since(start))

	// Flush and verify every observability output before reporting: a
	// truncated stream must fail the run, not pass silently.
	if err := verifyStreams(evw, ivw, cfg.Tracer); err != nil {
		log.Fatal(err)
	}
	if evFile != nil {
		if err := evFile.Close(); err != nil {
			log.Fatalf("event stream: %v", err)
		}
	}
	if ivFile != nil {
		if err := ivFile.Close(); err != nil {
			log.Fatalf("interval stream: %v", err)
		}
	}

	if *asJSON {
		printJSON(cfg, res, host)
		return
	}

	fmt.Printf("benchmark        %s\n", res.Benchmark)
	fmt.Printf("pipeline         DEC-IQ=%d IQ-EX=%d regread=%d dra=%v load=%s\n",
		cfg.DecIQLat, cfg.IQExLat, cfg.RegReadLat, cfg.UseDRA, cfg.LoadPolicy)
	fmt.Printf("cycles           %d\n", res.Counters.Cycles)
	fmt.Printf("retired          %d (IPC %.3f)\n", res.Counters.Retired, res.IPC())
	fmt.Printf("branches         %d (mispredict %.2f%%)\n", res.Counters.Branches, 100*res.MispredictRate())
	fmt.Printf("loads            %d (L1 miss %.2f%%, L2 miss %d, bank conflicts %d, TLB traps %d)\n",
		res.Counters.Loads, 100*res.L1MissRate(), res.Counters.L2Misses,
		res.Counters.BankConflicts, res.Counters.TLBMissTraps)
	fmt.Printf("load misspecs    %d; data reissues %d\n", res.Counters.LoadMisspecs, res.Counters.DataReissues)
	fmt.Printf("memory ordering  %d order traps, %d store forwards (%s policy)\n",
		res.Counters.MemOrderTraps, res.Counters.StoreForwards, cfg.MemDep)
	fmt.Printf("squashed         %d total, %d issued\n", res.Counters.SquashedTotal, res.Counters.SquashedIssued)
	fmt.Printf("IQ occupancy     %.1f mean, %.1f issued-retained\n", res.IQOccupancy, res.IQRetained)
	fmt.Printf("cycle stack      %s\n", res.Cycles)
	if cfg.UseDRA {
		pr, fw, crc, miss := res.OperandShare()
		fmt.Printf("operands         pre-read %.1f%%, forwarded %.1f%%, CRC %.1f%%, miss %.3f%%\n",
			100*pr, 100*fw, 100*crc, 100*miss)
		fmt.Printf("operand reissues %d; front-end stall cycles %d\n",
			res.Counters.OperandReissues, res.Counters.FrontStalls)
	}
	fmt.Printf("host throughput  %.0f KIPS, %.2fM cycles/s (%.2fs wall)\n",
		host.KIPS, host.CyclesPerSec/1e6, host.WallSeconds)
	if *verbose {
		fmt.Printf("fetched          %d (+%d wrong-path), BTB bubbles %d\n",
			res.Counters.Fetched, res.Counters.WrongPathFetch, res.Counters.BTBBubbles)
		fmt.Printf("issued           %d slots, useful executions %d, useless work %d\n",
			res.Counters.IssuedTotal, res.Counters.ExecutedUseful, res.UselessWork())
		fmt.Printf("rename stalls    %d on IQ-full\n", res.Counters.RenameStallIQ)
		for i, r := range res.RetiredPerThread {
			fmt.Printf("thread %d         %d retired\n", i, r)
		}
		fmt.Printf("operand gap      p50=%d p90=%d cycles, <=9: %.1f%%\n",
			res.OperandGap.Percentile(0.5), res.OperandGap.Percentile(0.9),
			100*res.OperandGap.Fraction(9))
	}
	os.Exit(0)
}
