package analysis

import (
	"go/ast"
	"go/types"
)

// FieldReset returns the fieldreset analyzer: a method named Reset (or
// reset) on a pointer-to-struct receiver must account for every field of
// the struct. A Reset that misses a field leaves stale state from the
// previous use alive in the next one — in a simulator that reuses caches,
// histograms, or pooled instruction records across runs, that is a
// run-to-run determinism bug of exactly the kind that silently skews a
// few-percent IPC delta.
//
// A field counts as handled when the method:
//
//   - assigns the whole struct (`*r = T{...}` or `*r = zero`);
//   - assigns the field, directly or through an index/element path
//     (`r.f = 0`, `r.f[i] = line{}`, `r.f.g = ...`);
//   - calls a method on the field (`r.f.Reset()` — delegated reset);
//
// or when the field's declaration carries a `// simlint:noreset <why>`
// marker — the idiom for genuinely immutable state (configuration,
// derived geometry) that Reset must in fact preserve.
func FieldReset() *Analyzer {
	a := &Analyzer{
		Name:      "fieldreset",
		Doc:       "requires Reset methods to assign (or explicitly exempt) every field of their receiver struct",
		AppliesTo: internalOnly,
	}
	a.Run = func(pass *Pass) {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Body == nil {
					continue
				}
				if fn.Name.Name != "Reset" && fn.Name.Name != "reset" {
					continue
				}
				checkReset(pass, fn)
			}
		}
	}
	return a
}

// checkReset verifies one Reset method against its receiver struct.
func checkReset(pass *Pass, fn *ast.FuncDecl) {
	if len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return
	}
	recvIdent := fn.Recv.List[0].Names[0]
	recvObj := pass.Info.Defs[recvIdent]
	if recvObj == nil {
		return
	}
	tn := receiverTypeName(pass, fn)
	if tn == nil {
		return
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}

	touched := make(map[string]bool)
	wholeStruct := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				markResetTarget(pass, recvObj, lhs, touched, &wholeStruct)
			}
		case *ast.IncDecStmt:
			markResetTarget(pass, recvObj, x.X, touched, &wholeStruct)
		case *ast.CallExpr:
			// r.f.Method(...) delegates the field's reset.
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if f := receiverField(pass, recvObj, sel.X); f != "" {
					touched[f] = true
				}
			}
		}
		return true
	})
	if wholeStruct {
		return
	}

	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if touched[f.Name()] {
			continue
		}
		if resetFieldExempt(pass, f) {
			continue
		}
		pass.Reportf(fn.Name.Pos(),
			"(%s).%s leaves field %s unassigned; stale state survives reuse — assign it, delegate to a method on it, or mark the field `// simlint:noreset <why>`",
			tn.Name(), fn.Name.Name, f.Name())
	}
}

// markResetTarget records which receiver field (if any) the LHS expression
// writes. `*r = ...` sets wholeStruct.
func markResetTarget(pass *Pass, recvObj types.Object, lhs ast.Expr, touched map[string]bool, wholeStruct *bool) {
	if star, ok := lhs.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok && pass.Info.Uses[id] == recvObj {
			*wholeStruct = true
			return
		}
	}
	if f := receiverField(pass, recvObj, lhs); f != "" {
		touched[f] = true
	}
}

// receiverField unwraps an expression rooted at the receiver down to the
// first selected field name: r.f, r.f[i].g, (&r.f).g all yield "f".
// Returns "" when the expression is not rooted at the receiver.
func receiverField(pass *Pass, recvObj types.Object, e ast.Expr) string {
	var field string
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if pass.Info.Uses[x] == recvObj {
				return field
			}
			return ""
		case *ast.SelectorExpr:
			field = x.Sel.Name
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// resetFieldExempt reports whether the field's declaration (in this
// package's syntax) carries a simlint:noreset marker in its own doc or
// line comment.
func resetFieldExempt(pass *Pass, f *types.Var) bool {
	const marker = "simlint:noreset"
	for _, fl := range pass.Files {
		found := false
		ast.Inspect(fl, func(n ast.Node) bool {
			fieldDecl, ok := n.(*ast.Field)
			if !ok || found {
				return !found
			}
			for _, name := range fieldDecl.Names {
				if pass.Info.Defs[name] == f && fieldHasMarker(fieldDecl, marker) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
