package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the suite's cross-package engine: a whole-program static
// call graph over the loaded packages, plus hot-path reachability facts
// derived from it. PR 1's analyzers look at one package at a time; the
// engine exists for properties that only make sense whole-program — "is
// this allocation on the per-cycle simulation path?" is a question about
// the call graph from Machine.step, not about any single file.
//
// The graph is deliberately static and conservative, in the vet lineage:
//
//   - direct calls and qualified calls resolve through go/types;
//   - method values and function-value references add edges (the value may
//     be invoked by whoever receives it, so reachability must follow it);
//   - interface-dispatch calls fan out to every concrete method in the
//     program whose receiver type implements the interface;
//   - code inside a function literal is attributed to the enclosing
//     declaration (the literal's lifetime is bounded by its creator as far
//     as hot-path cost is concerned);
//   - calls through plain function-typed variables are not resolved — the
//     value edge added where the function was referenced already keeps
//     reachability sound for the patterns the simulator uses.
//
// A function carrying a `// simlint:coldpath <why>` marker on (or above)
// its declaration line is treated as off the hot path: it is excluded from
// the hot set and traversal does not continue through it. The marker is
// for amortised or failure-path work (slab refills, debug dumps) that a
// hot function legitimately calls.

// HotPathRoots declares the per-cycle entry points of the simulator: every
// function statically reachable from one of these is "hot". Entries are
// either "Type.method" (receiver type and method name) or a bare function
// name.
var HotPathRoots = []string{
	"Machine.step",
	"Machine.processEvents",
	"Machine.issue",
	"Machine.retire",
	"Machine.operandsDelivered",
	// The serve-layer event sink runs inside the per-cycle event path of
	// every job the daemon hosts, so it is held to the same allocation
	// discipline as the machine itself.
	"jobEventSink.Event",
	// The sweep coordinator's event counter runs once per request and
	// retry across the whole fleet — hot enough that it must stay one
	// atomic add plus a guarded interface call.
	"Coordinator.emit",
	// Span delivery runs on every traced stage transition across the
	// fleet, and the call graph cannot see through the SpanSink
	// interface — so both the delivering method and the production sink
	// implementation are explicit roots.
	"ActiveSpan.End",
	"Writer.Span",
	// Functional warming runs once per skipped instruction between sample
	// windows — the sampler's whole value is this loop being ~40x cheaper
	// than a detailed cycle, so it is held to hot-path discipline. The
	// snapshot codec is deliberately NOT rooted: encode/restore run once
	// per window boundary, not per cycle, and their error paths format
	// diagnostics — per-record cost there is bounded by machine size, not
	// instruction count.
	"Machine.WarmForward",
}

// FuncInfo ties one declared function or method to its syntax and package.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	File *ast.File
	Pkg  *Package
	// Coldpath records a `simlint:coldpath` marker on the declaration.
	Coldpath bool
}

// Program is the whole-program fact base handed to cross-package
// analyzers via Pass.Program.
type Program struct {
	// Fset is the file set the packages were parsed against; the perf
	// layer uses it to join compiler diagnostics by source position.
	Fset  *token.FileSet
	Pkgs  []*Package
	Funcs map[*types.Func]*FuncInfo
	// Calls maps a function to its static callees (module-local and
	// stdlib alike; reachability only follows functions with bodies).
	Calls map[*types.Func][]*types.Func
	// Hot marks functions reachable from HotPathRoots.
	Hot map[*types.Func]bool
	// HotRoot names, for each hot function, the root whose traversal
	// first reached it — diagnostics use it for provenance.
	HotRoot map[*types.Func]*types.Func

	funcsInOrder []*FuncInfo
}

// FuncsInOrder returns every declared function of the program in
// (package, file, declaration) order — the deterministic iteration the
// analyzers use instead of ranging over the Funcs map.
func (p *Program) FuncsInOrder() []*FuncInfo { return p.funcsInOrder }

// HotInfo returns the fact entry for fn, or nil when fn is not a declared
// function of the program or is not hot.
func (p *Program) HotInfo(fn *types.Func) *FuncInfo {
	if p == nil || !p.Hot[fn] {
		return nil
	}
	return p.Funcs[fn]
}

// BuildProgram constructs the call graph and hot-path facts over pkgs.
// The packages must already be typechecked against the shared fset.
func BuildProgram(fset *token.FileSet, pkgs []*Package) *Program {
	prog := &Program{
		Fset:    fset,
		Pkgs:    pkgs,
		Funcs:   make(map[*types.Func]*FuncInfo),
		Calls:   make(map[*types.Func][]*types.Func),
		Hot:     make(map[*types.Func]bool),
		HotRoot: make(map[*types.Func]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, File: file, Pkg: pkg}
				line := fset.Position(fd.Pos()).Line
				fi.Coldpath = hasMarker(fset, file, line, "simlint:coldpath")
				prog.Funcs[obj] = fi
				prog.funcsInOrder = append(prog.funcsInOrder, fi)
			}
		}
	}
	named := collectNamedTypes(pkgs)
	for _, fi := range prog.funcsInOrder {
		prog.Calls[fi.Obj] = collectCallees(fi, named)
	}
	prog.markHot()
	return prog
}

// markHot runs the reachability pass: breadth-first from every root, in
// declaration order, skipping coldpath-marked functions.
func (p *Program) markHot() {
	var queue []*types.Func
	for _, fi := range p.funcsInOrder {
		if !isHotRoot(fi.Obj) || fi.Coldpath {
			continue
		}
		p.Hot[fi.Obj] = true
		p.HotRoot[fi.Obj] = fi.Obj
		queue = append(queue, fi.Obj)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		root := p.HotRoot[fn]
		for _, callee := range p.Calls[fn] {
			fi, ok := p.Funcs[callee]
			if !ok || fi.Coldpath || p.Hot[callee] {
				continue
			}
			p.Hot[callee] = true
			p.HotRoot[callee] = root
			queue = append(queue, callee)
		}
	}
}

// isHotRoot matches fn against the HotPathRoots specs.
func isHotRoot(fn *types.Func) bool {
	recv := receiverTypeNameOf(fn)
	for _, spec := range HotPathRoots {
		if typ, method, ok := strings.Cut(spec, "."); ok {
			if recv == typ && fn.Name() == method {
				return true
			}
		} else if recv == "" && fn.Name() == spec {
			return true
		}
	}
	return false
}

// receiverTypeNameOf returns the name of fn's receiver's named type ("" for
// package-level functions).
func receiverTypeNameOf(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// collectNamedTypes gathers every package-level named type of the program,
// in deterministic (package, name) order, for interface-dispatch
// resolution.
func collectNamedTypes(pkgs []*Package) []*types.Named {
	var out []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				out = append(out, named)
			}
		}
	}
	return out
}

// collectCallees walks one declaration's body (nested literals included)
// and resolves every outgoing edge.
func collectCallees(fi *FuncInfo, named []*types.Named) []*types.Func {
	info := fi.Pkg.Info
	seen := make(map[*types.Func]bool)
	var out []*types.Func
	add := func(fn *types.Func) {
		if fn == nil {
			return
		}
		// Methods of instantiated generic types resolve to per-instantiation
		// objects; the graph is keyed by the declared origin.
		fn = fn.Origin()
		if !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			// Direct calls and function-value references both resolve
			// through Uses; builtins come back as *types.Builtin and drop.
			if fn, ok := info.Uses[x].(*types.Func); ok {
				add(fn)
			}
		case *ast.SelectorExpr:
			sel, ok := info.Selections[x]
			if !ok {
				// Qualified identifier (pkg.Func): Uses on the Sel ident
				// handles it via the *ast.Ident case above.
				return true
			}
			if sel.Kind() != types.MethodVal && sel.Kind() != types.MethodExpr {
				return true
			}
			callee, ok := sel.Obj().(*types.Func)
			if !ok {
				return true
			}
			recv := sel.Recv()
			if ptr, okp := recv.(*types.Pointer); okp {
				recv = ptr.Elem()
			}
			if iface, oki := recv.Underlying().(*types.Interface); oki {
				for _, impl := range implementations(iface, callee.Name(), named) {
					add(impl)
				}
				return true
			}
			add(callee)
		}
		return true
	})
	return out
}

// implementations resolves an interface method to every concrete method in
// the program whose receiver type satisfies the interface.
func implementations(iface *types.Interface, method string, named []*types.Named) []*types.Func {
	var out []*types.Func
	for _, n := range named {
		if types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, n.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	return out
}
