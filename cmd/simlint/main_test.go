package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"loosesim/internal/analysis"
)

// writeTempModule lays out a minimal module with one deliberate loopbound
// finding in an internal/pipeline package and chdirs into it.
func writeTempModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module simlinttest\n\ngo 1.22\n",
		"internal/pipeline/loop.go": `package pipeline

// Spin burns cycles forever; the missing exit is the finding under test.
func Spin() {
	x := 0
	for {
		x++
	}
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(cwd) })
	return dir
}

// TestRunJSON drives the CLI end to end: -json must report the planted
// finding as machine-readable output, module-root-relative, with exit 1.
func TestRunJSON(t *testing.T) {
	writeTempModule(t)

	var out, errb bytes.Buffer
	code := run([]string{"-json", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("run -json = exit %d, stderr %q; want 1", code, errb.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "loopbound" {
			found = true
		}
		if filepath.IsAbs(d.Position) {
			t.Errorf("position %q is absolute; findings must be module-root-relative", d.Position)
		}
	}
	if !found {
		t.Fatalf("-json output lacks the planted loopbound finding: %s", out.String())
	}
}

// TestPerfUpdateWritesRootBudget checks that -perfupdate, run from a
// subdirectory, rewrites the budget file at the module root.
func TestPerfUpdateWritesRootBudget(t *testing.T) {
	dir := writeTempModule(t)
	if err := os.Chdir(filepath.Join(dir, "internal", "pipeline")); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	run([]string{"-perfupdate", "./..."}, &out, &errb) // exit 1: the planted loopbound finding
	b, err := analysis.ReadPerfBudget(filepath.Join(dir, analysis.PerfBaselineFile))
	if err != nil {
		t.Fatalf("-perfupdate wrote no readable budget at the module root: %v\nstderr: %s", err, errb.String())
	}
	if len(b.Budgets) != 0 {
		t.Fatalf("budget for a module with no hot path = %v, want empty", b.Budgets)
	}
}

// TestTimingOutput checks -timing emits exactly one wall-time line per
// registered analyzer on stderr, and that -v adds the call-graph/total
// summary line.
func TestTimingOutput(t *testing.T) {
	writeTempModule(t)

	var out, errb bytes.Buffer
	code := run([]string{"-timing", "-v", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("run -timing = exit %d, stderr %q; want 1", code, errb.String())
	}

	named := make(map[string]bool)
	sawSummary := false
	for _, line := range strings.Split(strings.TrimSpace(errb.String()), "\n") {
		rest, ok := strings.CutPrefix(line, "timing: ")
		if !ok {
			continue
		}
		if strings.HasPrefix(rest, "callgraph ") {
			if !strings.Contains(rest, ", total ") {
				t.Errorf("summary line lacks total: %q", line)
			}
			sawSummary = true
			continue
		}
		name := strings.Fields(rest)[0]
		if named[name] {
			t.Errorf("analyzer %s timed twice", name)
		}
		named[name] = true
	}
	for _, a := range analysis.All() {
		if !named[a.Name] {
			t.Errorf("-timing emitted no line for analyzer %s", a.Name)
		}
	}
	if len(named) != len(analysis.All()) {
		t.Errorf("-timing named %d analyzers, registry has %d", len(named), len(analysis.All()))
	}
	if !sawSummary {
		t.Error("-timing -v emitted no callgraph/total summary line")
	}
}

// matcherRE mirrors .github/problem-matcher-simlint.json: the CI matcher
// only annotates lines of this shape, so text output must keep it.
var matcherRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): ([a-z][a-z-]*): (.+)$`)

// TestTextOutputMatchesProblemMatcher pins the text format the GitHub
// problem matcher parses: root-relative file, line, column, analyzer name,
// message.
func TestTextOutputMatchesProblemMatcher(t *testing.T) {
	writeTempModule(t)

	var out, errb bytes.Buffer
	code := run([]string{"./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = exit %d, stderr %q; want 1", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no findings printed")
	}
	for _, line := range lines {
		m := matcherRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("finding line does not match the problem matcher pattern: %q", line)
			continue
		}
		if filepath.IsAbs(m[1]) {
			t.Errorf("finding file %q is absolute; matcher annotations need root-relative paths", m[1])
		}
	}
}
