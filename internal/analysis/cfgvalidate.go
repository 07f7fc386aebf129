package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CfgValidate returns the cfgvalidate analyzer: for every struct type that
// declares a `Validate() error` method, each exported field — including
// those promoted from embedded structs declared in the same package — must
// either be referenced inside that method or carry a `// simlint:novalidate`
// comment.
//
// The rationale is config hygiene: the simulator's behaviour is a function
// of its Config structs, and a knob that Validate never looks at is a knob
// that can ship with a nonsense value (a zero latency, an impossible
// geometry) and silently skew every reported IPC. Forcing each new field
// through Validate — or through an explicit opt-out comment stating why no
// constraint exists — makes unvalidated knobs unrepresentable.
func CfgValidate() *Analyzer {
	a := &Analyzer{
		Name:      "cfgvalidate",
		Doc:       "requires every exported field of a Validate()-bearing struct to be validated or marked simlint:novalidate",
		AppliesTo: internalOnly,
	}
	a.Run = func(pass *Pass) {
		// The package's Validate() error methods in source order, and its
		// struct types by name.
		type validator struct {
			recv *types.TypeName
			fn   *ast.FuncDecl
		}
		var validators []validator
		structs := make(map[*types.TypeName]structDecl)
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.Name != "Validate" || d.Recv == nil || d.Body == nil || !returnsErrorOnly(pass, d) {
						continue
					}
					if tn := receiverTypeName(pass, d); tn != nil {
						validators = append(validators, validator{tn, d})
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
							structs[tn] = structDecl{file, st}
						}
					}
				}
			}
		}
		for _, v := range validators {
			checkStructValidated(pass, structs, v.recv, v.recv.Name(), fieldsReferenced(pass, v.fn))
		}
	}
	return a
}

// structDecl is a struct type declared in the package under analysis.
type structDecl struct {
	file *ast.File
	st   *ast.StructType
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

// checkStructValidated reports exported fields of the struct tn that
// owner's Validate body never references and that carry no novalidate
// marker. It descends into embedded structs declared in the same package,
// whose promoted fields owner's Validate must cover as if they were its
// own.
func checkStructValidated(pass *Pass, structs map[*types.TypeName]structDecl, tn *types.TypeName, owner string, referenced map[*types.Var]bool) {
	sd, ok := structs[tn]
	if !ok {
		return
	}
	for _, field := range sd.st.Fields.List {
		if len(field.Names) == 0 {
			if named, ok := pass.Info.Types[field.Type].Type.(*types.Named); ok {
				checkStructValidated(pass, structs, named.Obj(), owner, referenced)
			}
			continue
		}
		for _, name := range field.Names {
			if !name.IsExported() {
				continue
			}
			obj, ok := pass.Info.Defs[name].(*types.Var)
			if !ok || referenced[obj] {
				continue
			}
			if fieldHasNoValidate(pass, sd.file, field, name) {
				continue
			}
			pass.Reportf(name.Pos(),
				"exported field %s.%s is never referenced in (%s).Validate; validate it or mark it `// simlint:novalidate <why>`",
				tn.Name(), name.Name, owner)
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

// fieldHasNoValidate reports whether the field declaration carries a
// simlint:novalidate marker: in its doc comment, its line comment, or a
// comment on its own or the preceding line.
func fieldHasNoValidate(pass *Pass, file *ast.File, field *ast.Field, name *ast.Ident) bool {
	const marker = "simlint:novalidate"
	if field.Doc != nil && strings.Contains(field.Doc.Text(), marker) {
		return true
	}
	if field.Comment != nil && strings.Contains(field.Comment.Text(), marker) {
		return true
	}
	return hasMarker(pass.Fset, file, pass.Fset.Position(name.Pos()).Line, marker)
}
