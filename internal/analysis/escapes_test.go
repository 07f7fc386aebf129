package analysis

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestParseCompilerDiags feeds a canned -m -m / check_bce diagnostic
// stream through the parser and checks classification, skipping, and
// deduplication.
func TestParseCompilerDiags(t *testing.T) {
	const out = `# loosesim/internal/pipeline
internal/pipeline/machine.go:10:6: cannot inline (*Machine).step: function too complex: cost 200 exceeds budget 80
internal/pipeline/machine.go:12:14: make([]int, n) escapes to heap
internal/pipeline/machine.go:12:14: make([]int, n) escapes to heap
internal/pipeline/machine.go:13:9: moved to heap: cfg
internal/pipeline/machine.go:14:3: "pipeline: bad event" escapes to heap
internal/pipeline/machine.go:15:2: Found IsInBounds
internal/pipeline/machine.go:16:2: Found IsSliceInBounds
internal/pipeline/machine.go:20:6: can inline (*Machine).helper with cost 3
internal/pipeline/machine.go:21:7: inlining call to (*Machine).helper
internal/pipeline/machine.go:22:30: leaking param: u
internal/pipeline/machine.go:23:18: m does not escape
internal/pipeline/machine.go:24:4: flow: {heap} = &{storage for e}
garbage line with no position
`
	raws := ParseCompilerDiags(out)
	var got []string
	for _, r := range raws {
		got = append(got, string(r.Kind))
	}
	want := []string{"noinline", "escape", "escape", "boundscheck", "boundscheck"}
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
	if raws[0].Line != 10 || raws[0].Col != 6 || raws[0].File != "internal/pipeline/machine.go" {
		t.Fatalf("first diag position = %+v", raws[0])
	}
	if !strings.HasPrefix(raws[0].Message, "cannot inline") {
		t.Fatalf("noinline message = %q", raws[0].Message)
	}
}

// fixtureFunc resolves a function by display name in the fixture program.
func fixtureFunc(t *testing.T, prog *Program, name string) *FuncInfo {
	t.Helper()
	for _, fi := range prog.FuncsInOrder() {
		if funcDisplayName(fi.Obj) == name {
			return fi
		}
	}
	t.Fatalf("fixture has no function %s", name)
	return nil
}

// bodyLine returns the line of the function's body statement at index i.
func bodyLine(prog *Program, fi *FuncInfo, i int) int {
	return prog.Fset.Position(fi.Decl.Body.List[i].Pos()).Line
}

// TestJoinHotAttribution drives the position join over the escapejoin
// fixture: hot-function diags survive with provenance, cold and
// panic-line and suppressed diags drop, and inline failures only join on
// the declaration line.
func TestJoinHotAttribution(t *testing.T) {
	prog := loadFixtureProgram(t, "escapejoin.go")
	const file = "testdata/escapejoin.go"

	grow := fixtureFunc(t, prog, "Machine.grow")
	fail := fixtureFunc(t, prog, "Machine.fail")
	report := fixtureFunc(t, prog, "Machine.report")
	supp := fixtureFunc(t, prog, "Machine.suppressed")
	growDecl := prog.Fset.Position(grow.Decl.Pos()).Line

	raws := []RawDiag{
		{File: file, Line: bodyLine(prog, grow, 0), Col: 10, Kind: PerfEscape, Message: "make([]int, n) escapes to heap"},
		{File: file, Line: bodyLine(prog, fail, 0), Col: 2, Kind: PerfEscape, Message: "boom escapes to heap"},
		{File: file, Line: bodyLine(prog, report, 0), Col: 10, Kind: PerfEscape, Message: "make([]int, 9) escapes to heap"},
		{File: file, Line: bodyLine(prog, supp, 0), Col: 10, Kind: PerfEscape, Message: "make([]int, 3) escapes to heap"},
		{File: file, Line: growDecl, Col: 6, Kind: PerfNoInline, Message: "cannot inline grow"},
		{File: file, Line: bodyLine(prog, grow, 0), Col: 6, Kind: PerfNoInline, Message: "cannot inline stray"},
		{File: "testdata/other.go", Line: 3, Col: 1, Kind: PerfEscape, Message: "x escapes to heap"},
	}
	joined := JoinHot(prog, ".", raws)

	if len(joined) != 2 {
		t.Fatalf("joined = %d diags %v, want 2", len(joined), joined)
	}
	byKind := make(map[PerfKind]PerfDiag)
	for _, d := range joined {
		byKind[d.Kind] = d
	}
	esc, ok := byKind[PerfEscape]
	if !ok || esc.Func != "Machine.grow" || esc.Root != "Machine.step" {
		t.Fatalf("escape diag = %+v, want Machine.grow via Machine.step", esc)
	}
	ni, ok := byKind[PerfNoInline]
	if !ok || ni.Func != "Machine.grow" {
		t.Fatalf("noinline diag = %+v, want Machine.grow", ni)
	}
}

// TestHotDispatchSites counts dynamic call sites over the ifacedispatch
// fixture — sanctioned seams included, since the budget ratchets totals.
func TestHotDispatchSites(t *testing.T) {
	prog := loadFixtureProgram(t, "ifacedispatch.go")
	sites := HotDispatchSites(prog)
	// step: sanctioned Event, Rand.Next, field m.ready, local f;
	// tick: two r.Next calls (the ignore comment silences the analyzer,
	// not the counter). Six total.
	if len(sites) != 6 {
		var descs []string
		for _, s := range sites {
			descs = append(descs, s.Desc)
		}
		t.Fatalf("dispatch sites = %d %v, want 6", len(sites), descs)
	}
}

// TestPerfBudgetDiff exercises the ratchet arithmetic: growth in any cell
// fails, shrink is reported separately, new packages count as growth from
// zero.
func TestPerfBudgetDiff(t *testing.T) {
	base := &PerfBudget{Budgets: map[string]map[string]int{
		"internal/pipeline": {"escape": 2, "dispatch": 4},
		"internal/iq":       {"escape": 1},
	}}
	cur := &PerfBudget{Budgets: map[string]map[string]int{
		"internal/pipeline": {"escape": 3, "dispatch": 4},
		"internal/iq":       {},
		"internal/uop":      {"noinline": 1},
	}}
	growths, shrinks := base.Diff(cur)
	if len(growths) != 2 {
		t.Fatalf("growths = %v, want pipeline escape and uop noinline", growths)
	}
	if growths[0].Pkg != "internal/pipeline" || growths[0].Kind != "escape" || growths[0].Current != 3 {
		t.Fatalf("growths[0] = %+v", growths[0])
	}
	if growths[1].Pkg != "internal/uop" || growths[1].Kind != "noinline" {
		t.Fatalf("growths[1] = %+v", growths[1])
	}
	if len(shrinks) != 1 || shrinks[0].Pkg != "internal/iq" || shrinks[0].Current != 0 {
		t.Fatalf("shrinks = %v, want iq escape 1 -> 0", shrinks)
	}
}

// TestComputePerfBudget checks the tally: compiler diags bucket under
// their own kind, dispatch sites under "dispatch", keyed by
// module-relative package path.
func TestComputePerfBudget(t *testing.T) {
	prog := loadFixtureProgram(t, "ifacedispatch.go")
	var fi *FuncInfo
	for _, f := range prog.FuncsInOrder() {
		fi = f
		break
	}
	diags := []PerfDiag{
		{Kind: PerfEscape, Pkg: "internal/pipeline"},
		{Kind: PerfEscape, Pkg: "internal/pipeline"},
		{Kind: PerfNoInline, Pkg: "internal/iq"},
	}
	sites := []DispatchSite{{Fn: fi}, {Fn: fi}}
	b := ComputePerfBudget(diags, sites)
	if b.Budgets["internal/pipeline"]["escape"] != 2 {
		t.Fatalf("pipeline escape = %d, want 2", b.Budgets["internal/pipeline"]["escape"])
	}
	if b.Budgets["internal/iq"]["noinline"] != 1 {
		t.Fatalf("iq noinline = %d, want 1", b.Budgets["internal/iq"]["noinline"])
	}
	// The fixture package path is "fixture" (no module prefix to strip).
	if b.Budgets["fixture"]["dispatch"] != 2 {
		t.Fatalf("fixture dispatch = %d, want 2", b.Budgets["fixture"]["dispatch"])
	}
}

// writeModule lays out a throwaway module in a temp directory and returns
// its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// loadModule typechecks every package of the module at root.
func loadModule(t *testing.T, root string) (*Loader, []*Package) {
	t.Helper()
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	return loader, pkgs
}

// escapeProbeSrc plants each allocating hot-path shape in Machine.step and
// its non-allocating twin in Machine.quiet. A trailing `// escape: <msg>`
// comment names the compiler message the line must join with.
const escapeProbeSrc = `package pipeline

type node struct{ v int }

// Machine is a hot-path root holder; step and quiet are both hot.
type Machine struct {
	cycle int
	out   []int
	ptr   *node
	fn    func()
	box   any
}

var kept any

func keep(v any) { kept = v }

func look(v any) bool { return v != nil }

func (m *Machine) step() {
	m.out = make([]int, m.cycle) // escape: make([]int, m.cycle) escapes to heap
	m.ptr = &node{v: m.cycle}    // escape: &node{...} escapes to heap
	keep(m.cycle)                // escape: m.cycle escapes to heap
	m.box = m.cycle              // escape: m.cycle escapes to heap
	x := 0                       // escape: moved to heap: x
	m.fn = func() { x++ }        // escape: func literal escapes to heap
	m.quiet()
}

func (m *Machine) quiet() {
	buf := make([]int, 8)
	buf[0] = m.cycle
	n := &node{v: buf[0]}
	if look(m.cycle) {
		n.v++
	}
	var local any = m.cycle
	if local == nil {
		n.v++
	}
	y := 0
	func() { y++ }()
	m.cycle = n.v + y
}
`

// TestJoinHotRealCompiler runs the escape join against the real compiler:
// each allocating shape in the hot step must surface as a PerfEscape
// attributed to Machine.step, and the non-escaping twins in the equally hot
// Machine.quiet must produce no escape at all.
func TestJoinHotRealCompiler(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go compiler")
	}
	root := writeModule(t, map[string]string{
		"go.mod":                       "module escapetest\n\ngo 1.22\n",
		"internal/pipeline/machine.go": escapeProbeSrc,
	})
	loader, _ := loadModule(t, root)
	prog := BuildProgram(loader.Fset(), loader.AllPackages())
	raws, err := CompilerDiags(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined := JoinHot(prog, root, raws)

	type key struct {
		line int
		msg  string
	}
	got := make(map[key]bool)
	for _, d := range joined {
		if d.Kind != PerfEscape {
			continue
		}
		if d.Func != "Machine.step" {
			t.Errorf("escape joined to %s, want only Machine.step: %s", d.Func, d)
			continue
		}
		parts := strings.Split(d.Position, ":")
		line, err := strconv.Atoi(parts[len(parts)-2])
		if err != nil {
			t.Fatalf("position %q: %v", d.Position, err)
		}
		got[key{line, d.Message}] = true
	}
	wantN := 0
	for i, src := range strings.Split(escapeProbeSrc, "\n") {
		_, msg, ok := strings.Cut(src, "// escape: ")
		if !ok {
			continue
		}
		wantN++
		if !got[key{i + 1, msg}] {
			t.Errorf("line %d: no PerfEscape %q joined to Machine.step; joined: %v", i+1, msg, joined)
		}
	}
	if wantN != 6 {
		t.Fatalf("probe source plants %d escapes, want 6", wantN)
	}
}

// TestRunStatsTimings checks that the timed runner names every analyzer
// exactly once, in registry order, even with a nil clock — and that a nil
// clock takes no times at all.
func TestRunStatsTimings(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "hotalloc.go"))
	if err != nil {
		t.Fatal(err)
	}
	root := writeModule(t, map[string]string{
		"go.mod":                      "module timingtest\n\ngo 1.22\n",
		"internal/fixture/fixture.go": string(fixture),
	})
	loader, pkgs := loadModule(t, root)
	diags, stats := RunAnalyzersTimed(loader, pkgs, All(), nil)
	if len(diags) == 0 {
		t.Fatal("no findings over the hotalloc fixture; the analyzers did not run")
	}
	all := All()
	if len(stats.Timings) != len(all) {
		t.Fatalf("timings = %d, want one per analyzer (%d)", len(stats.Timings), len(all))
	}
	for i, tm := range stats.Timings {
		if tm.Name != all[i].Name {
			t.Errorf("timings[%d] = %s, want %s (registry order)", i, tm.Name, all[i].Name)
		}
		if tm.Elapsed != 0 {
			t.Errorf("%s elapsed %v with a nil clock, want 0", tm.Name, tm.Elapsed)
		}
	}
	if stats.Graph != 0 || stats.Total != 0 {
		t.Errorf("graph %v, total %v with a nil clock, want 0", stats.Graph, stats.Total)
	}
}
