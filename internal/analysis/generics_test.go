package analysis

import (
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

// TestCallsGenericsOrigin checks that the edge collector normalizes
// instantiated callees: the edges out of Machine.step name the declared
// generic function and the declared method of the generic type, each as
// the identical graph node the program indexed, not an instantiation clone.
func TestCallsGenericsOrigin(t *testing.T) {
	prog := loadFixtureProgram(t, "generics.go")
	step := fixtureFunc(t, prog, "Machine.step")
	var callees []string
	for _, c := range prog.Calls[step.Obj] {
		callees = append(callees, funcDisplayName(c))
	}
	sort.Strings(callees)

	// drain is reached through a method expression, which collectCallees
	// records as an edge too.
	want := []string{"Machine.drain", "Stack.push", "clampAll"}
	if len(callees) != len(want) {
		t.Fatalf("Calls[Machine.step] = %v, want %v", callees, want)
	}
	for i := range want {
		if callees[i] != want[i] {
			t.Fatalf("Calls[Machine.step] = %v, want %v", callees, want)
		}
	}

	for _, name := range []string{"Stack.push", "clampAll"} {
		decl := fixtureFunc(t, prog, name)
		found := false
		for _, c := range prog.Calls[step.Obj] {
			if c == decl.Obj {
				found = true
			}
		}
		if !found {
			t.Fatalf("Calls[Machine.step] = %v, want the declared %s object", prog.Calls[step.Obj], name)
		}
	}
}
