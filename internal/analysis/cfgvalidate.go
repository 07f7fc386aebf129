package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CfgValidate returns the cfgvalidate analyzer. It enforces two "every
// field is referenced in the method or marked" rules:
//
//   - For every struct type that declares a `Validate() error` method, each
//     exported field — including those promoted from embedded structs
//     declared in the same package — must either be referenced inside that
//     method or carry a `// simlint:novalidate` comment. The simulator's
//     behaviour is a function of its Config structs, and a knob that
//     Validate never looks at can ship with a nonsense value (a zero
//     latency, an impossible geometry) and silently skew every reported
//     IPC.
//   - For every struct type that declares a `Sync(*snap.Codec)` method, each
//     field, exported or not, must either be referenced inside that method
//     or carry a `// simlint:nosync` comment. Sync is the type's one
//     checkpoint field list, so a field it never touches is state that a
//     restored machine silently loses; geometry, configuration and derived
//     indexes say so with the marker.
func CfgValidate() *Analyzer {
	a := &Analyzer{
		Name:      "cfgvalidate",
		Doc:       "requires every exported field of a Validate()-bearing struct to be validated or marked simlint:novalidate, and every field of a Sync(*snap.Codec)-bearing struct to be synced or marked simlint:nosync",
		AppliesTo: internalOnly,
	}
	a.Run = func(pass *Pass) {
		// The package's Validate() error and Sync(*Codec) methods in source
		// order, and its struct types by name.
		type method struct {
			recv *types.TypeName
			fn   *ast.FuncDecl
			rule fieldRule
		}
		var methods []method
		structs := make(map[*types.TypeName]*ast.StructType)
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil || d.Body == nil {
						continue
					}
					var rule fieldRule
					switch {
					case d.Name.Name == "Validate" && returnsErrorOnly(pass, d):
						rule = validateRule
					case d.Name.Name == "Sync" && takesCodecOnly(pass, d):
						rule = syncRule
					default:
						continue
					}
					if tn := receiverTypeName(pass, d); tn != nil {
						methods = append(methods, method{tn, d, rule})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, isStruct := ts.Type.(*ast.StructType)
						tn, isName := pass.Info.Defs[ts.Name].(*types.TypeName)
						if isStruct && isName {
							structs[tn] = st
						}
					}
				}
			}
		}
		for _, m := range methods {
			checkStructCovered(pass, structs, m.recv, m.recv.Name(), fieldsReferenced(pass, m.fn), m.rule)
		}
	}
	return a
}

// fieldRule is one "every field is referenced in the method or marked"
// requirement.
type fieldRule struct {
	method   string // the method whose body must reference the fields
	marker   string // the opt-out comment marker
	exported bool   // only exported fields are covered
	verb     string // what covering a field means, for the message
}

var (
	validateRule = fieldRule{method: "Validate", marker: "simlint:novalidate", exported: true, verb: "validate"}
	syncRule     = fieldRule{method: "Sync", marker: "simlint:nosync", verb: "sync"}
)

// takesCodecOnly reports whether fn's signature is func(*Codec) with no
// results, Codec being the snapshot codec type (internal/snap).
func takesCodecOnly(pass *Pass, fn *ast.FuncDecl) bool {
	obj, ok := pass.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Codec"
}

// returnsErrorOnly reports whether fn's signature is func(...) error.
func returnsErrorOnly(pass *Pass, fn *ast.FuncDecl) bool {
	obj, ok := pass.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// receiverTypeName resolves the named type of fn's receiver, unwrapping a
// pointer receiver.
func receiverTypeName(pass *Pass, fn *ast.FuncDecl) *types.TypeName {
	if len(fn.Recv.List) != 1 {
		return nil
	}
	tv, ok := pass.Info.Types[fn.Recv.List[0].Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// checkStructCovered reports the fields of the struct tn that rule covers,
// that owner's method body never references, and that carry no opt-out
// marker. It descends into embedded structs declared in the same package,
// whose promoted fields owner's method must cover as if they were its
// own.
func checkStructCovered(pass *Pass, structs map[*types.TypeName]*ast.StructType, tn *types.TypeName, owner string, referenced map[*types.Var]bool, rule fieldRule) {
	st, ok := structs[tn]
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 {
			if named, ok := pass.Info.Types[field.Type].Type.(*types.Named); ok {
				checkStructCovered(pass, structs, named.Obj(), owner, referenced, rule)
			}
			continue
		}
		for _, name := range field.Names {
			if rule.exported && !name.IsExported() {
				continue
			}
			obj, ok := pass.Info.Defs[name].(*types.Var)
			if !ok || referenced[obj] {
				continue
			}
			if fieldHasMarker(field, rule.marker) {
				continue
			}
			kind := "field"
			if rule.exported {
				kind = "exported field"
			}
			pass.Reportf(name.Pos(),
				"%s %s.%s is never referenced in (%s).%s; %s it or mark it `// %s <why>`",
				kind, tn.Name(), name.Name, owner, rule.method, rule.verb, rule.marker)
		}
	}
}

// fieldsReferenced collects every struct-field object the function body
// uses, via selector resolution.
func fieldsReferenced(pass *Pass, fn *ast.FuncDecl) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// fieldHasMarker reports whether the field declaration carries marker in
// its own doc or line comment. A comment on a neighbouring field never
// counts, so a trailing marker exempts exactly the field it trails.
func fieldHasMarker(field *ast.Field, marker string) bool {
	return field.Doc != nil && strings.Contains(field.Doc.Text(), marker) ||
		field.Comment != nil && strings.Contains(field.Comment.Text(), marker)
}
