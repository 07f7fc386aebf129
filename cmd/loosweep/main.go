// Command loosweep runs the paper's sweeps through a fleet of loosimd
// backends via the dispatch coordinator: shard-by-content-key assignment,
// bounded per-backend windows, retries with jittered backoff, hedged
// requests, health-based ejection, and graceful degradation to local
// simulation when the fleet is gone. The results are byte-identical to a
// local serial run — the fleet changes where a sweep executes, never what
// it computes.
//
// Usage:
//
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
	"strconv"
	"strings"
	"time"

	"loosesim/internal/dispatch"
	"loosesim/internal/experiments"
	"loosesim/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loosweep: ")

	var (
		backends  = flag.String("backends", "", "comma-separated loosimd base URLs (empty: run everything locally)")
		fig       = flag.String("fig", "", "figure to regenerate through the fleet: 4, 5, 6, 8, 9, or all")
		quick     = flag.Bool("quick", false, "short runs (smoke-test quality)")
		measure   = flag.Uint64("inst", 0, "override measured instructions per run")
		seed      = flag.Int64("seed", 1, "simulation seed")
		inflight  = flag.Int("inflight", 0, "max in-flight requests per backend (0 = default)")
		attempts  = flag.Int("attempts", 0, "max submission attempts per job before local fallback (0 = default)")
		backoff   = flag.Duration("backoff", 0, "base retry backoff (0 = default)")
		hedge     = flag.Duration("hedge", 0, "duplicate a request on a second backend after this delay (0 = off)")
		probe     = flag.Duration("probe", 0, "health-probe interval (0 = default)")
		eject     = flag.Int("eject", 0, "consecutive failures that eject a backend (0 = default)")
		noCache   = flag.Bool("nocache", false, "ask backends to bypass their result caches")
		asJSON    = flag.Bool("json", false, "emit tables as JSON")
		asCSV     = flag.Bool("csv", false, "emit tables as CSV")
		traceFile = flag.String("trace", "", "append coordinator spans (JSONL) to this file; loostrace renders them")
		traceSeed = flag.Int64("trace-seed", 1, "seed for deterministic trace IDs")
	)
	flag.Parse()

	if *fig == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *asJSON && *asCSV {
		log.Fatal("-json and -csv are mutually exclusive")
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

	coord, err := dispatch.New(dispatch.Options{
		Backends:      splitBackends(*backends),
		InFlight:      *inflight,
		Attempts:      *attempts,
		BackoffBase:   *backoff,
		HedgeDelay:    *hedge,
		ProbeInterval: *probe,
		EjectAfter:    *eject,
		NoCache:       *noCache,
		Tracer:        tracer,
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
	opt.Runner = coord.Runner(context.Background())

	type job struct {
		name string
		run  func(experiments.Options) (*experiments.Table, error)
	}
	var jobs []job
	addFig := func(name string, f func(experiments.Options) (*experiments.Table, error)) {
		jobs = append(jobs, job{name, f})
	}
	switch *fig {
	case "4":
		addFig("fig4", experiments.Fig4)
	case "5":
		addFig("fig5", experiments.Fig5)
	case "6":
		addFig("fig6", experiments.Fig6)
	case "8":
		addFig("fig8", experiments.Fig8)
	case "9":
		addFig("fig9", experiments.Fig9)
	case "all":
		addFig("fig4", experiments.Fig4)
		addFig("fig5", experiments.Fig5)
		addFig("fig6", experiments.Fig6)
		addFig("fig8", experiments.Fig8)
		addFig("fig9", experiments.Fig9)
	default:
		log.Fatalf("unknown figure %q", *fig)
	}

	for _, j := range jobs {
		start := time.Now()
		t, err := j.run(opt)
		if err != nil {
			log.Fatalf("%s: %v", j.name, err)
		}
		wall := time.Since(start).Seconds()
		switch {
		case *asJSON:
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
// never pollute table output.
func printFleetSummary(m dispatch.Metrics) {
	if m.Requests == 0 && m.LocalFallbacks == 0 {
		return
	}
	log.Printf("fleet: %d requests, %d cache hits (%.0f%%), %d retries, %d/%d hedges won, %d ejections, %d local fallbacks",
		m.Requests, m.CacheHits, 100*m.CacheHitRate, m.Retries, m.HedgesWon, m.Hedges, m.Ejections, m.LocalFallbacks)
	for _, b := range m.Backends {
		state := "up"
		if b.Down {
			state = "down"
		}
		log.Printf("fleet: backend %s: %d requests, %d failures, %s", b.URL, b.Requests, b.Failures, state)
	}
}
