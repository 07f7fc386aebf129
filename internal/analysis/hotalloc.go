package analysis

import (
	"go/ast"
	"go/types"
)

// HotAlloc returns the hotalloc analyzer: inside any function the call
// graph proves reachable from the per-cycle roots (HotPathRoots), it flags
// the source patterns that cost on every cycle but that the compiler's
// escape analysis does not report per site:
//
//   - fmt calls and strings.Builder use — formatting belongs in reporting
//     code, never on the per-cycle path;
//   - map iteration, which is both cache-hostile and (per detmap)
//     nondeterministically ordered.
//
// Heap escapes (make, new, &T{...}, closures, interface boxing) are not
// checked here: the compiler decides them, and the perf ratchet
// (escapes.go, perfbudget.go) counts what it reports.
//
// Arguments to panic are exempt: a panicking simulator's allocation rate
// is irrelevant. A function whose hot-path work is genuinely amortised or
// cold (a slab refill, a once-per-run flush) opts out with a
// `// simlint:coldpath <why>` marker on its declaration, which also stops
// reachability propagating through it; a single site can instead use the
// generic `// simlint:ignore hotalloc <why>`.
//
// hotalloc needs whole-program facts (Pass.Program); with no program
// attached it reports nothing.
func HotAlloc() *Analyzer {
	a := &Analyzer{
		Name:      "hotalloc",
		Doc:       "flags fmt calls, strings.Builder use, and map iteration in hot-path-reachable functions",
		AppliesTo: internalOnly,
	}
	a.Run = func(pass *Pass) {
		prog := pass.Program
		if prog == nil {
			return
		}
		forEachHotDecl(pass, prog, func(obj *types.Func, fd *ast.FuncDecl) {
			checkHotFunc(pass, hotWhere(prog, obj), fd)
		})
	}
	return a
}

// checkHotFunc walks one hot function's body and reports formatting and
// map iteration, skipping panic arguments.
func checkHotFunc(pass *Pass, where string, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(pass, x) {
				return false // terminal path: allocation cost is irrelevant
			}
			checkCall(pass, x, where)
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(x.Pos(), "map iteration %s; use an index-keyed slice on the hot path", where)
				}
			}
		}
		return true
	})
}

// checkCall reports a (non-panic) fmt call or strings.Builder method call.
func checkCall(pass *Pass, call *ast.CallExpr, where string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if packageOf(pass, sel) == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s call %s; formatting allocates — move it off the per-cycle path", sel.Sel.Name, where)
		return
	}
	if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.MethodVal && isStringsBuilder(s.Recv()) {
		pass.Reportf(call.Pos(), "strings.Builder use %s; string assembly allocates — move it off the per-cycle path", where)
	}
}

// isPanicCall reports whether call is the builtin panic.
func isPanicCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// isStringsBuilder reports whether t (or *t) is strings.Builder.
func isStringsBuilder(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Builder" && obj.Pkg() != nil && obj.Pkg().Path() == "strings"
}

// hotWhere renders the "in hot-path function f (reachable from root)"
// suffix for diagnostics.
func hotWhere(prog *Program, obj *types.Func) string {
	name := funcDisplayName(obj)
	root := prog.HotRoot[obj]
	if root == nil || root == obj {
		return "in hot-path function " + name
	}
	return "in hot-path function " + name + " (reachable from " + funcDisplayName(root) + ")"
}

// funcDisplayName renders Type.method or plain function names.
func funcDisplayName(fn *types.Func) string {
	if recv := receiverTypeNameOf(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Name()
}

// exprString renders a short source-ish form of simple receiver
// expressions for messages.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "expr"
}
