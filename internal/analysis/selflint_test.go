package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// loadRepo loads the whole module once per test that needs it.
func loadRepo(t *testing.T, patterns ...string) (*Loader, []*Package) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		t.Fatal(err)
	}
	return loader, pkgs
}

// TestRepoCleanUnderSimlint is the suite's own acceptance test: running
// every analyzer over the repository must produce zero findings, exactly as
// `go run ./cmd/simlint ./...` in the tier-1 flow does.
func TestRepoCleanUnderSimlint(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	loader, pkgs := loadRepo(t, "./...")
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing parts of the module", len(pkgs))
	}
	for _, d := range RunAnalyzers(loader, pkgs, All()) {
		t.Errorf("%s", d)
	}
}

// TestRepoWithinPerfBudget is the perf ratchet: the hot-path escape,
// inlining, bounds-check, and dispatch counts measured from the compiler
// and the call graph must not exceed the committed PERF_baseline.json in
// any package. The loader reads every source file of the module, so
// editing any package reruns this test instead of replaying a cached pass.
func TestRepoWithinPerfBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module with compiler diagnostics")
	}
	loader, _ := loadRepo(t, "./...")
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog := BuildProgram(loader.Fset(), loader.AllPackages())
	_, _, current, err := MeasurePerf(prog, root)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := ReadPerfBudget(filepath.Join(root, PerfBaselineFile))
	if err != nil {
		t.Fatal(err)
	}
	growths, shrinks := baseline.Diff(current)
	for _, d := range shrinks {
		t.Logf("perf budget improved: %s (lock it in with: go run ./cmd/simlint -perfupdate ./...)", d)
	}
	if len(growths) == 0 {
		return
	}
	var msg strings.Builder
	fmt.Fprintf(&msg, "hot-path perf budget exceeded (%s):\n", PerfBaselineFile)
	for _, d := range growths {
		fmt.Fprintf(&msg, "  %s\n", d)
	}
	msg.WriteString("inspect the offending sites with:  go run ./cmd/simlint -perf ./...\n")
	msg.WriteString("if the growth is intentional, ratchet deliberately with:  go run ./cmd/simlint -perfupdate ./...")
	t.Error(msg.String())
}

func TestLoaderModulePath(t *testing.T) {
	loader, pkgs := loadRepo(t, "./internal/stats")
	if loader.ModulePath() != "loosesim" {
		t.Fatalf("module path = %q, want loosesim", loader.ModulePath())
	}
	if len(pkgs) != 1 || pkgs[0].Path != "loosesim/internal/stats" {
		t.Fatalf("patterns selected %v, want exactly loosesim/internal/stats", pkgPaths(pkgs))
	}
	if pkgs[0].Types == nil || pkgs[0].Info == nil {
		t.Fatal("selected package was not typechecked")
	}
}

func TestLoaderSubtreePattern(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	_, pkgs := loadRepo(t, "./internal/...")
	if len(pkgs) == 0 {
		t.Fatal("no packages matched ./internal/...")
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "loosesim/internal/") {
			t.Errorf("pattern ./internal/... selected %s", p.Path)
		}
	}
	// The analysis package itself must be among them: the linter lints
	// its own sources.
	if !contains(pkgPaths(pkgs), "loosesim/internal/analysis") {
		t.Error("./internal/... did not select loosesim/internal/analysis")
	}
}

func pkgPaths(pkgs []*Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.Path)
	}
	return out
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestMatches(t *testing.T) {
	cases := []struct {
		path, pat string
		want      bool
	}{
		{"loosesim", ".", true},
		{"loosesim/internal/stats", ".", false},
		{"loosesim/internal/stats", "./...", true},
		{"loosesim/internal/stats", "./internal/...", true},
		{"loosesim/internal/stats", "./internal/stats", true},
		{"loosesim/internal/stats", "internal/stats", true},
		{"loosesim/internal/stats", "loosesim/internal/stats", true},
		{"loosesim/cmd/simlint", "./internal/...", false},
		{"loosesim/internal/statsdir", "./internal/stats/...", false},
	}
	for _, c := range cases {
		if got := matches(c.path, "loosesim", c.pat); got != c.want {
			t.Errorf("matches(%q, %q) = %v, want %v", c.path, c.pat, got, c.want)
		}
	}
}
