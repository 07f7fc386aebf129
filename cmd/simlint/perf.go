package main

import (
	"fmt"
	"io"
	"path/filepath"

	"loosesim/internal/analysis"
)

// runPerf drives the perf-analysis layer: compile the module with
// diagnostic flags, join the output against the hot-path call graph, count
// dynamic dispatch sites, and report them and/or rewrite the committed
// budget. Returns the process exit code contribution: 0 done, 2
// operational error. Checking against the budget is
// TestRepoWithinPerfBudget's job, not this command's.
func runPerf(stdout, stderr io.Writer, loader *analysis.Loader, root string, report, update bool) int {
	prog := analysis.BuildProgram(loader.Fset(), loader.AllPackages())
	diags, sites, current, err := analysis.MeasurePerf(prog, root)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}

	if report {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		fmt.Fprintf(stderr, "simlint: %d hot-path compiler diagnostic(s), %d dynamic dispatch site(s)\n",
			len(diags), len(sites))
	}
	if update {
		path := filepath.Join(root, analysis.PerfBaselineFile)
		if err := current.Write(path); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "simlint: wrote perf budget %s\n", path)
	}
	return 0
}
