package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the perf-lint analyzers: three checks that turn known
// per-cycle cost patterns — dynamic dispatch, defer, and append growth —
// into findings on hot-path-reachable functions. They complement
// escapes.go: the compiler join reports what *did* escape or fail to
// inline, but it does not report these costs per site, so the analyzers
// name them at the source.

// SanctionedDispatch lists the interface method calls that are accepted on
// the hot path, as "InterfaceType.Method" specs. These mirror the
// deliberate seams of the simulator: the predictor, sink, and span
// interfaces exist precisely so implementations can be swapped per run,
// and their dispatch cost is part of the measured baseline. The dispatch
// budget in PERF_baseline.json still counts them — sanctioning silences
// the finding, not the ratchet.
var SanctionedDispatch = []string{
	// Branch predictor seam: swapped per configuration (bimodal, gshare,
	// TAGE); one dispatch per fetched branch is the accepted price.
	"Predictor.Predict",
	"Predictor.Update",
	// Observability seams: nil-checked or no-op in unprobed runs. The bare
	// interface name matches both obs.EventSink and dispatch.EventSink —
	// the seams are deliberate in both layers.
	"EventSink.Event",
	"IntervalSink.Interval",
	"SpanSink.Span",
}

// DispatchSite is one dynamic call on the hot path: an interface method
// call or an indirect call through a function value. The ifacedispatch
// analyzer reports the unsanctioned ones; the perf budget counts them all.
type DispatchSite struct {
	Pos  token.Pos
	Fn   *FuncInfo
	Spec string // "Iface.Method" for interface dispatch, "" for indirect
	Desc string // human-readable site description
}

// HotDispatchSites walks every hot-path function of the program and
// collects its dynamic call sites in declaration order.
func HotDispatchSites(prog *Program) []DispatchSite {
	var out []DispatchSite
	for _, fi := range prog.FuncsInOrder() {
		if !prog.Hot[fi.Obj] {
			continue
		}
		info := fi.Pkg.Info
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if site, ok := classifyDispatch(info, fi, call); ok {
				out = append(out, site)
			}
			return true
		})
	}
	return out
}

// classifyDispatch decides whether one call expression dispatches
// dynamically, and if so describes it.
func classifyDispatch(info *types.Info, fi *FuncInfo, call *ast.CallExpr) (DispatchSite, bool) {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.FuncLit:
		return DispatchSite{}, false // called in place: a static call, not dispatch
	case *ast.Ident:
		switch info.Uses[x].(type) {
		case *types.Func, *types.Builtin, *types.TypeName, *types.Nil, nil:
			return DispatchSite{}, false // direct call, builtin, or conversion
		}
		if isFuncValue(info, x) {
			return DispatchSite{Pos: call.Pos(), Fn: fi,
				Desc: fmt.Sprintf("indirect call through function value %s", x.Name)}, true
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[x]
		if !ok {
			return DispatchSite{}, false // qualified pkg.Func: direct
		}
		switch sel.Kind() {
		case types.MethodVal:
			recv := sel.Recv()
			if ptr, okp := recv.(*types.Pointer); okp {
				recv = ptr.Elem()
			}
			if _, oki := recv.Underlying().(*types.Interface); !oki {
				return DispatchSite{}, false // concrete method: direct
			}
			spec := ifaceTypeName(recv) + "." + x.Sel.Name
			return DispatchSite{Pos: call.Pos(), Fn: fi, Spec: spec,
				Desc: fmt.Sprintf("interface dispatch %s on %s", spec, exprString(x.X))}, true
		case types.FieldVal:
			if isFuncValue(info, x) {
				return DispatchSite{Pos: call.Pos(), Fn: fi,
					Desc: fmt.Sprintf("indirect call through field %s.%s", exprString(x.X), x.Sel.Name)}, true
			}
		}
	default:
		// Call of a call result, index expression, etc.: indirect when the
		// operand is function-typed.
		if isFuncValue(info, fun) {
			return DispatchSite{Pos: call.Pos(), Fn: fi,
				Desc: "indirect call through computed function value"}, true
		}
	}
	return DispatchSite{}, false
}

// isFuncValue reports whether e has (non-builtin) function type.
func isFuncValue(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.IsType() {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}

// ifaceTypeName names an interface type for sanction matching: the named
// type's bare name, or the full rendering for anonymous interfaces.
func ifaceTypeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return types.TypeString(t, nil)
}

// IfaceDispatch returns the ifacedispatch analyzer: every interface method
// call or indirect call in a hot-path function is a finding unless the
// interface method is on the SanctionedDispatch list. Dynamic calls block
// inlining and devirtualization, and boxing at the call boundary is how
// most hot-path escapes start; anything not explicitly sanctioned should
// be a concrete call or a type switch.
func IfaceDispatch() *Analyzer {
	a := &Analyzer{
		Name:      "ifacedispatch",
		Doc:       "flags unsanctioned interface or indirect calls in hot-path-reachable functions",
		AppliesTo: internalOnly,
	}
	a.Run = func(pass *Pass) {
		prog := pass.Program
		if prog == nil {
			return
		}
		sanctioned := make(map[string]bool, len(SanctionedDispatch))
		for _, s := range SanctionedDispatch {
			sanctioned[s] = true
		}
		forEachHotDecl(pass, prog, func(obj *types.Func, fd *ast.FuncDecl) {
			where := hotWhere(prog, obj)
			fi := prog.Funcs[obj]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				site, ok := classifyDispatch(pass.Info, fi, call)
				if !ok || sanctioned[site.Spec] {
					return true
				}
				pass.Reportf(site.Pos, "%s %s; devirtualize via the concrete type or sanction the seam", site.Desc, where)
				return true
			})
		})
	}
	return a
}

// DeferHot returns the deferhot analyzer: defer in a hot-path function.
// A deferred call costs a frame record on every invocation and blocks
// inlining of the deferring function; per-cycle code unwinds with plain
// calls at the end of the function instead.
func DeferHot() *Analyzer {
	a := &Analyzer{
		Name:      "deferhot",
		Doc:       "flags defer statements in hot-path-reachable functions",
		AppliesTo: internalOnly,
	}
	a.Run = func(pass *Pass) {
		prog := pass.Program
		if prog == nil {
			return
		}
		forEachHotDecl(pass, prog, func(obj *types.Func, fd *ast.FuncDecl) {
			where := hotWhere(prog, obj)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if d, ok := n.(*ast.DeferStmt); ok {
					pass.Reportf(d.Pos(), "defer %s; call the cleanup directly on each exit path", where)
				}
				return true
			})
		})
	}
	return a
}

// AppendHot returns the appendhot analyzer: append in a hot-path function
// with no preallocation evidence. Growth via append doubles the backing
// array and copies — once per slot that was ~90%% of the machine's
// allocations. Accepted shapes:
//
//   - appending to an explicit reslice (`append(s[:0], …)`,
//     `append(kept[:i], …)`): the filter/compact idiom reuses the existing
//     backing array;
//   - a `// simlint:prealloc <why>` marker on the line or the line above,
//     stating where the capacity was provisioned (constructor slab, pool).
//
// An escaping `make` on the hot path is the perf ratchet's to count, not
// this analyzer's.
func AppendHot() *Analyzer {
	a := &Analyzer{
		Name:      "appendhot",
		Doc:       "flags append growth in hot-path-reachable functions without preallocation evidence",
		AppliesTo: internalOnly,
	}
	a.Run = func(pass *Pass) {
		prog := pass.Program
		if prog == nil {
			return
		}
		for _, file := range pass.Files {
			f := file
			forEachHotDeclInFile(pass, prog, f, func(obj *types.Func, fd *ast.FuncDecl) {
				where := hotWhere(prog, obj)
				resliced := reslicedLocals(pass, fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || !isBuiltinCall(pass.Info, call, "append") {
						return true
					}
					if len(call.Args) > 0 {
						dst := ast.Unparen(call.Args[0])
						if _, ok := dst.(*ast.SliceExpr); ok {
							return true // compact/filter idiom: reuses backing storage
						}
						if id, ok := dst.(*ast.Ident); ok && resliced[pass.Info.Uses[id]] {
							return true // local initialized from a reslice: same idiom
						}
					}
					line := pass.Fset.Position(call.Pos()).Line
					if hasMarker(pass.Fset, f, line, "simlint:prealloc") {
						return true
					}
					pass.Reportf(call.Pos(), "append without preallocation evidence %s; provision capacity at construction and mark the site simlint:prealloc", where)
					return true
				})
			})
		}
	}
	return a
}

// reslicedLocals collects the local variables of fd that are assigned
// from an explicit reslice (`kept := s[:0]`, `buf = buf[:n]`): appending
// into such a variable reuses existing backing storage, so the filter /
// compact idiom passes without a marker.
func reslicedLocals(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if _, ok := ast.Unparen(as.Rhs[i]).(*ast.SliceExpr); !ok {
				continue
			}
			if obj := pass.Info.Defs[id]; obj != nil {
				out[obj] = true
			}
			if obj := pass.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// forEachHotDecl visits every hot-path function declared in the pass's
// files, in file order.
func forEachHotDecl(pass *Pass, prog *Program, visit func(*types.Func, *ast.FuncDecl)) {
	for _, file := range pass.Files {
		forEachHotDeclInFile(pass, prog, file, visit)
	}
}

func forEachHotDeclInFile(pass *Pass, prog *Program, file *ast.File, visit func(*types.Func, *ast.FuncDecl)) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
		if !ok || prog.HotInfo(obj) == nil {
			continue
		}
		visit(obj, fd)
	}
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
