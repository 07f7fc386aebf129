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

func main() {
	log.SetFlags(0)
	log.SetPrefix("loosweep: ")

	var (
		backends  = flag.String("backends", "", "comma-separated loosimd base URLs (empty: run everything locally)")
		fig       = flag.String("fig", "", "figure to regenerate: 4, 5, 6, 8, 9, or all")
		ablation  = flag.String("ablation", "", "ablation to run: recovery, crc, fwd, iqpressure, crcpolicy, monolithic, memdep, predictor, loops, or all")
		quick     = flag.Bool("quick", false, "short runs (smoke-test quality)")
		measure   = flag.Uint64("inst", 0, "override measured instructions per run")
		seed      = flag.Int64("seed", 1, "simulation seed")
		cacheDir  = flag.String("cache", "", "content-addressed result cache for local runs (shareable with loosimd -cache)")
		inflight  = flag.Int("inflight", 0, "max in-flight requests per backend (0 = default)")
		noCache   = flag.Bool("nocache", false, "ask backends to bypass their result caches")
		asJSON    = flag.Bool("json", false, "emit tables as JSON")
		asCSV     = flag.Bool("csv", false, "emit tables as CSV")
		traceFile = flag.String("trace", "", "append coordinator spans (JSONL) to this file; loostrace renders them")
		traceSeed = flag.Int64("trace-seed", 1, "seed for deterministic trace IDs")
	)
	flag.Parse()

	if *fig == "" && *ablation == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *asJSON && *asCSV {
		log.Fatal("-json and -csv are mutually exclusive")
	}
	figs, err := selectSweeps(figures, "figure", "fig", *fig)
	if err != nil {
		log.Fatal(err)
	}
	abls, err := selectSweeps(ablations, "ablation", "", *ablation)
	if err != nil {
		log.Fatal(err)
	}

	var tracer *trace.Tracer
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		spanOut := trace.NewWriter(f)
		tracer = trace.New(trace.Options{Seed: *traceSeed, Now: time.Now, Sink: spanOut})
		defer func() {
			if err := spanOut.Flush(); err != nil {
				log.Printf("trace flush: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Printf("trace close: %v", err)
			}
		}()
	}

	var (
		local  func(context.Context, []pipeline.Config) ([]*pipeline.Result, error)
		cstats serve.CacheStats
	)
	if *cacheDir != "" {
		store, err := serve.NewDirStore(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		local = func(ctx context.Context, cfgs []pipeline.Config) ([]*pipeline.Result, error) {
			return serve.RunAllCached(ctx, store, &cstats, cfgs)
		}
	}

	coord, err := dispatch.New(dispatch.Options{
		Backends: splitBackends(*backends),
		InFlight: *inflight,
		NoCache:  *noCache,
		Tracer:   tracer,
		Local:    local,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	if *measure > 0 {
		opt.Measure = *measure
	}
	opt.Seed = *seed
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt.Runner = coord.Runner(ctx)

	// With -json, stdout carries the JSON reports alone; the text that
	// goes with them is written to stderr instead.
	notes := os.Stdout
	if *asJSON {
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
				log.Fatalf("%s: interrupted", j.name)
			}
			log.Fatalf("%s: %v", j.name, err)
		}
		wall := time.Since(start).Seconds()
		switch {
		case *asJSON:
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
				log.Fatal(err)
			}
		case *asCSV:
			if err := writeCSV(os.Stdout, t); err != nil {
				log.Fatal(err)
			}
		default:
			fmt.Println(t)
			fmt.Printf("[%s took %.1fs]\n\n", j.name, wall)
		}
	}
	if *cacheDir != "" {
		fmt.Fprintf(notes, "[cache: %d hits, %d misses]\n", cstats.Hits(), cstats.Misses())
	}
	if !*asJSON {
		printFleetSummary(coord.Metrics())
	}
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
