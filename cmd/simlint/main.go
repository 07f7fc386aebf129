// Command simlint runs the simulator's domain-specific static-analysis
// suite (internal/analysis) over the module: determinism, config hygiene,
// loop safety, hot-path allocation discipline, and error discipline, with
// vet-style file:line:col output.
//
// Usage:
//
//	simlint [flags] [packages]
//
// Packages follow go-tool patterns relative to the module root: `./...`
// (the default), `./internal/...`, `./internal/pipeline`. The tool exits 0
// when clean, 1 when it found problems, and 2 on a load or usage error.
//
// Flags:
//
//	-json       emit findings as a JSON array instead of text
//	-list       list the available analyzers and exit
//	-enable     comma-separated analyzers to run (default "all")
//	-disable    comma-separated analyzers to skip
//	-timing     print one wall-time line per enabled analyzer to stderr
//	-v          with -timing, also print the run total and call-graph time
//
// The performance layer (see internal/analysis escapes.go, perfbudget.go)
// rides behind its own flags:
//
//	-perf        report hot-path compiler diagnostics (heap escapes,
//	             inlining failures, bounds checks) joined against the
//	             call graph; a report, not a gate — exit stays 0
//	-perfupdate  rewrite the module root's PERF_baseline.json from the
//	             current counts (run after an optimization PR to ratchet
//	             the budget down)
//
// The budget gate itself is TestRepoWithinPerfBudget in internal/analysis,
// so `go test ./...` fails on any hot-path count that grew.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"loosesim/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	list := fs.Bool("list", false, "list analyzers and exit")
	enable := fs.String("enable", "all", "comma-separated analyzers to run")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	timing := fs.Bool("timing", false, "print per-analyzer wall time to stderr")
	verbose := fs.Bool("v", false, "with -timing, also print total and call-graph time")
	perf := fs.Bool("perf", false, "report hot-path compiler diagnostics (escapes, inlining, bounds checks)")
	perfUpdate := fs.Bool("perfupdate", false, "rewrite "+analysis.PerfBaselineFile+" from the current hot-path counts")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := analysis.ByName(*enable)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	if *disable != "" {
		skip, err := analysis.ByName(*disable)
		if err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
		skipNames := make(map[string]bool)
		for _, a := range skip {
			skipNames[a.Name] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range analyzers {
			if !skipNames[a.Name] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	pkgs, err := loader.Load(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "simlint: patterns %v matched no packages\n", fs.Args())
		return 2
	}

	var clock func() time.Time
	if *timing {
		clock = time.Now
	}
	diags, stats := analysis.RunAnalyzersTimed(loader, pkgs, analyzers, clock)
	if *timing {
		for _, tm := range stats.Timings {
			fmt.Fprintf(stderr, "timing: %-13s %s\n", tm.Name, tm.Elapsed.Round(time.Microsecond))
		}
		if *verbose {
			fmt.Fprintf(stderr, "timing: callgraph %s, total %s\n",
				stats.Graph.Round(time.Microsecond), stats.Total.Round(time.Microsecond))
		}
	}
	relativize(diags, root)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	code := 0
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "simlint: %d finding(s)\n", len(diags))
		}
		code = 1
	}
	if *perf || *perfUpdate {
		if pc := runPerf(stdout, stderr, loader, root, *perf, *perfUpdate); pc > code {
			code = pc
		}
	}
	return code
}

// relativize rewrites absolute positions under the module root to
// root-relative slash form, so text and -json output are stable across
// checkouts and line up with the CI problem matcher's annotations.
func relativize(diags []analysis.Diagnostic, root string) {
	for i := range diags {
		file := diags[i].Position
		suffix := ""
		for range [2]int{} { // peel :col then :line off the right
			if j := strings.LastIndex(file, ":"); j >= 0 {
				suffix = file[j:] + suffix
				file = file[:j]
			}
		}
		if !filepath.IsAbs(file) {
			continue
		}
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Position = filepath.ToSlash(rel) + suffix
		}
	}
}
