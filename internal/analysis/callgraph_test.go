package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// loadFixtureProgram typechecks one testdata file standalone and builds
// the whole-program facts over it.
func loadFixtureProgram(t *testing.T, fixture string) *Program {
	t.Helper()
	fset := token.NewFileSet()
	path := filepath.Join("testdata", fixture)
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("fixture", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	return BuildProgram(fset, []*Package{{
		Path: "fixture", Files: []*ast.File{file}, Types: pkg, Info: info,
	}})
}

// TestCallGraphHotSet drives the builder over a fixture exercising direct
// calls, method values, interface dispatch, function literals, and the
// coldpath marker, and checks the resulting hot set exactly.
func TestCallGraphHotSet(t *testing.T) {
	prog := loadFixtureProgram(t, "callgraph.go")

	var hot []string
	for fn := range prog.Hot {
		hot = append(hot, funcDisplayName(fn))
	}
	sort.Strings(hot)

	want := []string{
		"Machine.advance",  // direct method call
		"Machine.eligible", // method value reference
		"Machine.step",     // root
		"flatSink.Emit",    // interface dispatch fan-out
		"ringSink.Emit",    // interface dispatch fan-out
		"ringSink.grow",    // transitively via ringSink.Emit
		"tally",            // direct function call
		"viaLiteral",       // called from a literal inside step
	}
	if len(hot) != len(want) {
		t.Fatalf("hot set = %v, want %v", hot, want)
	}
	for i := range want {
		if hot[i] != want[i] {
			t.Fatalf("hot set = %v, want %v", hot, want)
		}
	}
}

// TestCallGraphColdpath checks that a coldpath-marked callee keeps its
// call edge (the graph is honest) but is excluded from the hot set along
// with everything only reachable through it.
func TestCallGraphColdpath(t *testing.T) {
	prog := loadFixtureProgram(t, "callgraph.go")

	byName := make(map[string]*types.Func)
	for fn := range prog.Funcs {
		byName[funcDisplayName(fn)] = fn
	}
	step, dump, deep := byName["Machine.step"], byName["Machine.dump"], byName["Machine.deep"]
	if step == nil || dump == nil || deep == nil {
		t.Fatalf("fixture functions missing: step=%v dump=%v deep=%v", step, dump, deep)
	}

	if !prog.Funcs[dump].Coldpath {
		t.Error("Machine.dump should carry the coldpath marker")
	}
	edge := false
	for _, callee := range prog.Calls[step] {
		if callee == dump {
			edge = true
		}
	}
	if !edge {
		t.Error("call edge step -> dump should exist even though dump is coldpath")
	}
	if prog.Hot[dump] || prog.Hot[deep] {
		t.Errorf("coldpath pruning failed: Hot[dump]=%v Hot[deep]=%v", prog.Hot[dump], prog.Hot[deep])
	}
	if prog.Hot[byName["orphan"]] {
		t.Error("orphan should not be hot")
	}
}

// TestCallGraphHotRoot checks diagnostic provenance: every hot function
// records the root whose traversal reached it.
func TestCallGraphHotRoot(t *testing.T) {
	prog := loadFixtureProgram(t, "callgraph.go")

	byName := make(map[string]*types.Func)
	for fn := range prog.Funcs {
		byName[funcDisplayName(fn)] = fn
	}
	step := byName["Machine.step"]
	for _, name := range []string{"Machine.step", "ringSink.grow", "viaLiteral"} {
		fn := byName[name]
		if fn == nil {
			t.Fatalf("fixture function %s missing", name)
		}
		if prog.HotRoot[fn] != step {
			t.Errorf("HotRoot[%s] = %v, want Machine.step", name, prog.HotRoot[fn])
		}
	}
}

// TestCallGraphRunnerHook checks the func-typed hook contract the
// experiments.Options.Runner injection relies on: the call through the
// hook resolves to nothing, the method-value wiring adds the edge that
// keeps the injected implementation reachable, and the interface-typed
// field fans out to every implementation at the call site. It also checks
// that spawned calls are call edges.
func TestCallGraphRunnerHook(t *testing.T) {
	prog := loadFixtureProgram(t, "callgraph.go")

	byName := make(map[string]*types.Func)
	var fis = make(map[string]*FuncInfo)
	for fn, fi := range prog.Funcs {
		byName[funcDisplayName(fn)] = fn
		fis[funcDisplayName(fn)] = fi
	}
	runBatch := fis["Pool.runBatch"]
	if runBatch == nil {
		t.Fatal("fixture function Pool.runBatch missing")
	}

	var hookCall, emitCall *ast.CallExpr
	ast.Inspect(runBatch.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, oks := call.Fun.(*ast.SelectorExpr); oks {
			switch sel.Sel.Name {
			case "Runner":
				hookCall = call
			case "Emit":
				emitCall = call
			}
		}
		return true
	})
	if hookCall == nil || emitCall == nil {
		t.Fatalf("fixture call sites missing: hook=%v emit=%v", hookCall, emitCall)
	}

	if got := prog.CalleesAt(runBatch.Pkg.Info, hookCall); len(got) != 0 {
		t.Errorf("CalleesAt(p.opts.Runner(n)) = %v, want none (plain function value)", got)
	}
	emitees := make(map[*types.Func]bool)
	for _, fn := range prog.CalleesAt(runBatch.Pkg.Info, emitCall) {
		emitees[fn] = true
	}
	if !emitees[byName["ringSink.Emit"]] || !emitees[byName["flatSink.Emit"]] || len(emitees) != 2 {
		t.Errorf("CalleesAt(p.sink.Emit(n)) = %v, want both implementations", emitees)
	}

	// The wiring edge: inject -> cachedRun via the method-value reference.
	edge := false
	for _, c := range prog.Calls[byName["Pool.inject"]] {
		if c == byName["Pool.cachedRun"] {
			edge = true
		}
	}
	if !edge {
		t.Error("Calls[Pool.inject] should include Pool.cachedRun (method-value reference)")
	}

	// Goroutine spawns are call edges too, whatever the spawn shape.
	callees := make(map[*types.Func]bool)
	for _, c := range prog.Calls[byName["Pool.spawnAll"]] {
		callees[c] = true
	}
	for _, name := range []string{"Pool.runBatch", "Pool.cachedRun", "tally"} {
		if !callees[byName[name]] {
			t.Errorf("Calls[Pool.spawnAll] missing %s", name)
		}
	}
}
