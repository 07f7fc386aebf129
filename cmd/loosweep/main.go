// Command loosweep regenerates the paper's figures and ablations, locally
// or through a fleet of loosimd backends via the dispatch coordinator:
// shard-by-content-key assignment, bounded per-backend windows, retries
// that walk the hash ring with jittered backoff, and local simulation of
// any job the fleet did not serve. With no -backends every batch runs
// locally. The results are byte-identical either way — the fleet changes
// where a sweep executes, never what it computes. SIGINT or SIGTERM
// cancels in-flight requests and local runs, and the command exits
// non-zero.
//
// Usage:
//
//	loosweep -fig 4                     # Figure 4 only, on this host
//	loosweep -fig all -quick            # every figure, short runs
//	loosweep -ablation crc              # one ablation
//	loosweep -fig all -cache DIR        # reuse results stored in DIR
//	loosweep -backends http://a:8087,http://b:8087 -fig 4
//	loosweep -backends http://a:8087 -fig all -json > report.json
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"loosesim/internal/dispatch"
	"loosesim/internal/experiments"
	"loosesim/internal/pipeline"
	"loosesim/internal/serve"
	"loosesim/internal/trace"
)

// sweep is one experiment the driver can run.
type sweep struct {
	name string
	run  func(experiments.Options) (*experiments.Table, error)
}

// figures and ablations map every -fig and -ablation name to its
// experiment, in the order "all" runs them. `-fig N` selects "figN". The
// "loops" ablation has no table: its run is nil and the driver prints
// experiments.LoopDelayCheck instead.
var (
	figures = []sweep{
		{"fig4", experiments.Fig4},
		{"fig5", experiments.Fig5},
		{"fig6", experiments.Fig6},
		{"fig8", experiments.Fig8},
		{"fig9", experiments.Fig9},
	}
	ablations = []sweep{
		{"recovery", experiments.AblationLoadRecovery},
		{"crc", experiments.AblationCRC},
		{"fwd", experiments.AblationForwardDepth},
		{"iqpressure", experiments.AblationIQPressure},
		{"crcpolicy", experiments.AblationCRCPolicy},
		{"monolithic", experiments.AblationMonolithic},
		{"memdep", experiments.AblationMemDep},
		{"predictor", experiments.AblationPredictor},
		{"loops", nil},
	}
)

// selectSweeps resolves one flag's value against its table: "" selects
// nothing, "all" every entry, anything else the entry named prefix+value.
func selectSweeps(table []sweep, kind, prefix, value string) ([]sweep, error) {
	switch value {
	case "":
		return nil, nil
	case "all":
		return table, nil
	}
	for _, s := range table {
		if s.name == prefix+value {
			return []sweep{s}, nil
		}
	}
	return nil, fmt.Errorf("unknown %s %q", kind, value)
}

// flags are the command's parsed options.
type flags struct {
	backends, fig, ablation, cacheDir, traceFile string
	quick, noCache, asJSON, asCSV                bool
	measure                                      uint64
	seed, traceSeed                              int64
	inflight                                     int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loosweep: ")

	var f flags
	flag.StringVar(&f.backends, "backends", "", "comma-separated loosimd base URLs (empty: run everything locally)")
	flag.StringVar(&f.fig, "fig", "", "figure to regenerate: 4, 5, 6, 8, 9, or all")
	flag.StringVar(&f.ablation, "ablation", "", "ablation to run: recovery, crc, fwd, iqpressure, crcpolicy, monolithic, memdep, predictor, loops, or all")
	flag.BoolVar(&f.quick, "quick", false, "short runs (smoke-test quality)")
	flag.Uint64Var(&f.measure, "inst", 0, "override measured instructions per run")
	flag.Int64Var(&f.seed, "seed", 1, "simulation seed")
	flag.StringVar(&f.cacheDir, "cache", "", "content-addressed result cache for local runs (shareable with loosimd -cache)")
	flag.IntVar(&f.inflight, "inflight", 0, "max in-flight requests per backend (0 = default)")
	flag.BoolVar(&f.noCache, "nocache", false, "ask backends to bypass their result caches")
	flag.BoolVar(&f.asJSON, "json", false, "emit tables as JSON")
	flag.BoolVar(&f.asCSV, "csv", false, "emit tables as CSV")
	flag.StringVar(&f.traceFile, "trace", "", "append coordinator spans (JSONL) to this file; loostrace renders them")
	flag.Int64Var(&f.traceSeed, "trace-seed", 1, "seed for deterministic trace IDs")
	flag.Parse()

	if f.fig == "" && f.ablation == "" {
		flag.Usage()
		os.Exit(2)
	}
	// run returns instead of exiting so that its deferred span flush,
	// trace file close, coordinator close and signal release all happen
	// on a failed or interrupted sweep too.
	if err := run(f); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run regenerates the selected figures and ablations.
func run(f flags) error {
	if f.asJSON && f.asCSV {
		return errors.New("-json and -csv are mutually exclusive")
	}
	figs, err := selectSweeps(figures, "figure", "fig", f.fig)
	if err != nil {
		return err
	}
	abls, err := selectSweeps(ablations, "ablation", "", f.ablation)
	if err != nil {
		return err
	}

	var tracer *trace.Tracer
	if f.traceFile != "" {
		file, err := os.OpenFile(f.traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		spanOut := trace.NewWriter(file)
		tracer = trace.New(trace.Options{Seed: f.traceSeed, Now: time.Now, Sink: spanOut})
		defer func() {
			if err := spanOut.Flush(); err != nil {
				log.Printf("trace flush: %v", err)
			}
			if err := file.Close(); err != nil {
				log.Printf("trace close: %v", err)
			}
		}()
	}

	var (
		local  func(context.Context, []pipeline.Config) ([]*pipeline.Result, error)
		cstats serve.CacheStats
	)
	if f.cacheDir != "" {
		store, err := serve.NewDirStore(f.cacheDir)
		if err != nil {
			return err
		}
		local = func(ctx context.Context, cfgs []pipeline.Config) ([]*pipeline.Result, error) {
			return serve.RunAllCached(ctx, store, &cstats, cfgs)
		}
	}

	coord, err := dispatch.New(dispatch.Options{
		Backends: splitBackends(f.backends),
		InFlight: f.inflight,
		NoCache:  f.noCache,
		Tracer:   tracer,
		Local:    local,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	opt := experiments.DefaultOptions()
	if f.quick {
		opt = experiments.QuickOptions()
	}
	if f.measure > 0 {
		opt.Measure = f.measure
	}
	opt.Seed = f.seed
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt.Runner = coord.Runner(ctx)

	// With -json, stdout carries the JSON reports alone; the text that
	// goes with them is written to stderr instead.
	notes := os.Stdout
	if f.asJSON {
		notes = os.Stderr
	}
	var jobs []sweep
	for _, s := range slices.Concat(figs, abls) {
		if s.run == nil {
			fmt.Fprintln(notes, experiments.LoopDelayCheck())
			continue
		}
		jobs = append(jobs, s)
	}
	for _, j := range jobs {
		start := time.Now()
		t, err := j.run(opt)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("%s: interrupted", j.name)
			}
			return fmt.Errorf("%s: %w", j.name, err)
		}
		wall := time.Since(start).Seconds()
		switch {
		case f.asJSON:
			// Each table carries its name and host-side cost so a sweep's
			// output is self-describing and throughput regressions show
			// up in the archived reports.
			report := struct {
				Name        string
				HostSeconds float64
				Table       *experiments.Table
				Fleet       dispatch.Metrics
			}{j.name, wall, t, coord.Metrics()}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(report); err != nil {
				return err
			}
		case f.asCSV:
			if err := writeCSV(os.Stdout, t); err != nil {
				return err
			}
		default:
			fmt.Println(t)
			fmt.Printf("[%s took %.1fs]\n\n", j.name, wall)
		}
	}
	if f.cacheDir != "" {
		fmt.Fprintf(notes, "[cache: %d hits, %d misses]\n", cstats.Hits(), cstats.Misses())
	}
	if !f.asJSON {
		printFleetSummary(coord.Metrics())
	}
	return nil
}

// splitBackends parses the -backends flag; an empty flag means an empty
// fleet (the coordinator then runs everything locally).
func splitBackends(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// writeCSV renders one table as CSV: a label column followed by the
// figure's series.
func writeCSV(f *os.File, t *experiments.Table) error {
	w := csv.NewWriter(f)
	if err := w.Write(append([]string{"benchmark"}, t.Header...)); err != nil {
		return err
	}
	row := make([]string, 0, len(t.Header)+1)
	for _, r := range t.Rows {
		row = append(row[:0], r.Label)
		for _, v := range r.Values {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// printFleetSummary reports the coordinator's counters to stderr so they
// never pollute table output. A run with no backends has no fleet to
// report on.
func printFleetSummary(m dispatch.Metrics) {
	if len(m.Backends) == 0 {
		return
	}
	log.Printf("fleet: %d requests, %d cache hits (%.0f%%), %d retries, %d local fallbacks",
		m.Requests, m.CacheHits, 100*m.CacheHitRate, m.Retries, m.LocalFallbacks)
	for _, b := range m.Backends {
		log.Printf("fleet: backend %s: %d requests, %d failures", b.URL, b.Requests, b.Failures)
	}
}
