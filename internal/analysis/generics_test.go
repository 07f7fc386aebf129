package analysis

import (
	"go/ast"
	"sort"
	"testing"
)

// TestCallGraphGenerics checks that hot-path reachability survives the
// three shapes the loader historically could not see: calls to generic
// functions, methods called through an instantiated generic type, and
// method expressions bound to a function value. All resolution goes
// through types.Func.Origin, so per-instantiation method objects line up
// with the declared graph nodes.
func TestCallGraphGenerics(t *testing.T) {
	prog := loadFixtureProgram(t, "generics.go")

	var hot []string
	for fn := range prog.Hot {
		hot = append(hot, funcDisplayName(fn))
	}
	sort.Strings(hot)

	want := []string{
		"Machine.drain", // method expression (*Machine).drain
		"Machine.flush", // transitively via drain
		"Machine.step",  // root
		"Stack.grow",    // transitively via Stack[int].push
		"Stack.push",    // method on instantiated generic type
		"clampAll",      // generic function call
		"clampOne",      // transitively inside a generic body
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

// TestCalleesAtGenerics checks the single-call resolver normalizes
// instantiated callees the same way the edge collector does.
func TestCalleesAtGenerics(t *testing.T) {
	prog := loadFixtureProgram(t, "generics.go")
	step := fixtureFunc(t, prog, "Machine.step")
	push := fixtureFunc(t, prog, "Stack.push")

	var resolved []string
	ast.Inspect(step.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, fn := range prog.CalleesAt(step.Pkg.Info, call) {
			resolved = append(resolved, funcDisplayName(fn))
		}
		return true
	})
	sort.Strings(resolved)

	want := []string{"Stack.push", "clampAll"}
	if len(resolved) != len(want) {
		t.Fatalf("resolved callees = %v, want %v", resolved, want)
	}
	for i := range want {
		if resolved[i] != want[i] {
			t.Fatalf("resolved callees = %v, want %v", resolved, want)
		}
	}

	// The resolved push must be the identical graph node the program
	// indexed from the declaration, not an instantiation clone.
	found := false
	ast.Inspect(step.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, fn := range prog.CalleesAt(step.Pkg.Info, call) {
			if fn == push.Obj {
				found = true
			}
		}
		return true
	})
	if !found {
		t.Fatalf("CalleesAt did not resolve Stack[int].push to the declared origin object")
	}
}
