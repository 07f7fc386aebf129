package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFixture typechecks one testdata fixture file and runs the analyzer
// over it, checking the findings against the fixture's `// want "substr"`
// comments: every want line must produce a diagnostic containing the
// substring, and no diagnostic may appear on a line without a want.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
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

	pass := NewPass(a, fset, []*ast.File{file}, pkg, info)
	// Cross-package analyzers read whole-program facts; for a fixture the
	// program is the fixture itself.
	pass.Program = BuildProgram(fset, []*Package{{
		Path: "fixture", Files: []*ast.File{file}, Types: pkg, Info: info,
	}})
	a.Run(pass)

	wants := parseWants(t, fset, file)
	got := make(map[int][]string)
	for _, d := range pass.Diagnostics() {
		got[d.Pos.Line] = append(got[d.Pos.Line], d.Message)
	}

	for line, substrs := range wants {
		msgs := got[line]
		for _, substr := range substrs {
			if !anyContains(msgs, substr) {
				t.Errorf("%s:%d: want diagnostic containing %q, got %v", fixture, line, substr, msgs)
			}
		}
	}
	for line, msgs := range got {
		if len(wants[line]) == 0 {
			t.Errorf("%s:%d: unexpected diagnostic(s): %v", fixture, line, msgs)
		}
	}
}

var wantRE = regexp.MustCompile(`// want (".*")\s*$`)
var wantStrRE = regexp.MustCompile(`"([^"]*)"`)

// parseWants maps fixture line numbers to expected message substrings.
func parseWants(t *testing.T, fset *token.FileSet, file *ast.File) map[int][]string {
	t.Helper()
	wants := make(map[int][]string)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				if strings.Contains(c.Text, "want \"") {
					t.Fatalf("malformed want comment: %s", c.Text)
				}
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, s := range wantStrRE.FindAllStringSubmatch(m[1], -1) {
				wants[line] = append(wants[line], s[1])
			}
		}
	}
	return wants
}

func anyContains(msgs []string, substr string) bool {
	for _, m := range msgs {
		if strings.Contains(m, substr) {
			return true
		}
	}
	return false
}

func TestDetMapFixture(t *testing.T)        { runFixture(t, DetMap(), "detmap.go") }
func TestNoClockFixture(t *testing.T)       { runFixture(t, NoClock(), "noclock.go") }
func TestCfgValidateFixture(t *testing.T)   { runFixture(t, CfgValidate(), "cfgvalidate.go") }
func TestLoopBoundFixture(t *testing.T)     { runFixture(t, LoopBound(), "loopbound.go") }
func TestErrCheckLiteFixture(t *testing.T)  { runFixture(t, ErrCheckLite(), "errcheck.go") }
func TestHotAllocFixture(t *testing.T)      { runFixture(t, HotAlloc(), "hotalloc.go") }
func TestExhaustiveFixture(t *testing.T)    { runFixture(t, Exhaustive(), "exhaustive.go") }
func TestFieldResetFixture(t *testing.T)    { runFixture(t, FieldReset(), "fieldreset.go") }
func TestSinkGuardFixture(t *testing.T)     { runFixture(t, SinkGuard(), "sinkguard.go") }
func TestIfaceDispatchFixture(t *testing.T) { runFixture(t, IfaceDispatch(), "ifacedispatch.go") }
func TestDeferHotFixture(t *testing.T)      { runFixture(t, DeferHot(), "deferhot.go") }
func TestAppendHotFixture(t *testing.T)     { runFixture(t, AppendHot(), "appendhot.go") }

func TestByName(t *testing.T) {
	all, err := ByName("all")
	if err != nil || len(all) != 12 {
		t.Fatalf("ByName(all) = %d analyzers, err %v; want 12, nil", len(all), err)
	}
	two, err := ByName("detmap,noclock")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName(detmap,noclock) = %d, err %v; want 2, nil", len(two), err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
}

// TestErrCheckLiteCmdMode checks the command-package contract: cmd/
// packages flag only dropped finalizer errors (Close/Flush/Sync/Shutdown),
// not every fmt.Println.
func TestErrCheckLiteCmdMode(t *testing.T) {
	const src = `package main

import (
	"fmt"
	"os"
)

func run(f *os.File) {
	fmt.Println("status")
	f.Sync()
	f.Close()
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "main.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("x/cmd/tool", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	a := ErrCheckLite()
	if !a.AppliesTo("x/cmd/tool") {
		t.Fatal("errcheck-lite should apply to cmd packages")
	}
	pass := NewPass(a, fset, []*ast.File{file}, pkg, info)
	a.Run(pass)
	ds := pass.Diagnostics()
	if len(ds) != 2 {
		t.Fatalf("cmd-mode diagnostics = %v, want exactly the two finalizer drops", ds)
	}
	for _, d := range ds {
		if !strings.Contains(d.Message, "f.Sync") && !strings.Contains(d.Message, "f.Close") {
			t.Errorf("unexpected cmd-mode diagnostic: %s", d)
		}
	}
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		comment string
		names   []string
		ok      bool
	}{
		{"// simlint:ignore detmap map feeds a sorted table", []string{"detmap"}, true},
		{"// simlint:ignore detmap,noclock reasons", []string{"detmap", "noclock"}, true},
		{"// simlint:ignore", []string{"all"}, true},
		{"// a normal comment", nil, false},
	}
	for _, c := range cases {
		names, ok := parseIgnore(c.comment)
		if ok != c.ok {
			t.Errorf("parseIgnore(%q) ok = %v, want %v", c.comment, ok, c.ok)
			continue
		}
		for _, n := range c.names {
			if !names[n] {
				t.Errorf("parseIgnore(%q) missing %q", c.comment, n)
			}
		}
	}
}
