package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The perf ratchet. PERF_baseline.json commits the current count of
// hot-path escapes, inlining failures, bounds checks, and dynamic dispatch
// sites per package. TestRepoWithinPerfBudget recomputes the counts and
// fails if any cell grew — the same one-way contract as the bench gate's
// 15% rule: the budget may be re-snapshotted downward after an
// optimization PR, but a regression cannot ride in silently. Counts (not
// positions) are budgeted deliberately, so unrelated line churn doesn't
// invalidate the baseline.

// PerfBaselineFile is the committed budget's path relative to the module
// root; the ratchet test reads it and `simlint -perfupdate` rewrites it.
const PerfBaselineFile = "PERF_baseline.json"

// MeasurePerf compiles the module at root with GCDiagFlags, joins the
// diagnostics against the program's hot set, collects the hot dispatch
// sites, and tallies both into the budget the ratchet compares.
func MeasurePerf(prog *Program, root string) ([]PerfDiag, []DispatchSite, *PerfBudget, error) {
	raws, err := CompilerDiags(root, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	diags := JoinHot(prog, root, raws)
	sites := HotDispatchSites(prog)
	return diags, sites, ComputePerfBudget(diags, sites), nil
}

// PerfBudget is the committed hot-path cost budget: package → kind → count.
type PerfBudget struct {
	// Comment documents the file for readers browsing the repo.
	Comment string                    `json:"_comment,omitempty"`
	Budgets map[string]map[string]int `json:"budgets"`
}

// ComputePerfBudget tallies joined compiler diagnostics and dispatch sites
// into a budget. Every dispatch site counts — sanctioned seams included —
// because the ratchet guards totals, not style.
func ComputePerfBudget(diags []PerfDiag, sites []DispatchSite) *PerfBudget {
	b := &PerfBudget{Budgets: make(map[string]map[string]int)}
	bump := func(pkg string, kind PerfKind) {
		m := b.Budgets[pkg]
		if m == nil {
			m = make(map[string]int)
			b.Budgets[pkg] = m
		}
		m[string(kind)]++
	}
	for _, d := range diags {
		bump(d.Pkg, d.Kind)
	}
	for _, s := range sites {
		bump(modRelPkg(s.Fn.Pkg.Path), PerfDispatch)
	}
	return b
}

// ReadPerfBudget loads a committed budget file.
func ReadPerfBudget(path string) (*PerfBudget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b PerfBudget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("analysis: parse %s: %w", path, err)
	}
	if b.Budgets == nil {
		b.Budgets = make(map[string]map[string]int)
	}
	return &b, nil
}

// Write persists the budget with stable formatting (json.Marshal sorts map
// keys, so the file diffs cleanly across snapshots).
func (b *PerfBudget) Write(path string) error {
	b.Comment = "hot-path perf budget; regenerate with `simlint -perfupdate` after an optimization PR"
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BudgetDelta is one (package, kind) cell whose count changed against the
// baseline.
type BudgetDelta struct {
	Pkg      string
	Kind     string
	Baseline int
	Current  int
}

func (d BudgetDelta) String() string {
	return fmt.Sprintf("%s %s: %d -> %d", d.Pkg, d.Kind, d.Baseline, d.Current)
}

// Diff compares the current counts against the committed baseline.
// Growths fail the gate; shrinks are reported so the budget can be
// re-snapshotted to lock in the win.
func (b *PerfBudget) Diff(current *PerfBudget) (growths, shrinks []BudgetDelta) {
	cells := make(map[[2]string]bool)
	for pkg, kinds := range b.Budgets {
		for kind := range kinds {
			cells[[2]string{pkg, kind}] = true
		}
	}
	for pkg, kinds := range current.Budgets {
		for kind := range kinds {
			cells[[2]string{pkg, kind}] = true
		}
	}
	var keys [][2]string
	for c := range cells {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, c := range keys {
		base := b.Budgets[c[0]][c[1]]
		cur := current.Budgets[c[0]][c[1]]
		d := BudgetDelta{Pkg: c[0], Kind: c[1], Baseline: base, Current: cur}
		switch {
		case cur > base:
			growths = append(growths, d)
		case cur < base:
			shrinks = append(shrinks, d)
		}
	}
	return growths, shrinks
}
