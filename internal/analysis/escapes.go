package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the perf-analysis layer's compiler half: it runs the Go
// compiler in diagnostic mode over the module, parses the escape-analysis,
// inlining, and bounds-check elimination output into typed records, and
// joins them against the call graph so that only diagnostics landing inside
// hot-path-reachable functions survive. Cold-path escapes are dropped for
// the same reason hotalloc honours `simlint:coldpath` markers: a
// once-per-run allocation in a constructor or a failure path is not a
// performance fact worth budgeting, and keeping it in the ratchet would
// train people to ignore the report.
//
// Unlike the analyzers, this layer deliberately shells out to the go
// command: escape and inlining decisions belong to the compiler, and
// re-deriving them statically would drift from what actually ships. The
// loader's offline guarantee is unaffected — `go build` here compiles the
// local module only, no network involved — and the build cache replays the
// diagnostic output of unchanged packages, so repeat runs are cheap.

// PerfKind classifies one performance diagnostic.
type PerfKind string

// The budgeted kinds. The first three come from the compiler; dispatch
// comes from the ifacedispatch site walker so that sanctioned interface
// calls on the hot path are counted (and ratcheted) even though the
// analyzer does not report them as findings.
const (
	PerfEscape      PerfKind = "escape"
	PerfNoInline    PerfKind = "noinline"
	PerfBoundsCheck PerfKind = "boundscheck"
	PerfDispatch    PerfKind = "dispatch"
)

// GCDiagFlags is the compiler flag set the perf layer builds with:
// escape/inline decisions (-m -m) plus bounds-check elimination debugging.
const GCDiagFlags = "-m -m -d=ssa/check_bce/debug=1"

// RawDiag is one compiler diagnostic before hot-path attribution.
type RawDiag struct {
	File    string // as printed by the compiler: module-root-relative, slash form
	Line    int
	Col     int
	Kind    PerfKind
	Message string
}

// PerfDiag is one hot-path-attributed performance finding.
type PerfDiag struct {
	Kind     PerfKind `json:"kind"`
	Position string   `json:"position"` // file:line:col, module-root-relative
	Pkg      string   `json:"package"`  // module-relative import path, e.g. internal/pipeline
	Func     string   `json:"function"` // display name of the hot function
	Root     string   `json:"root"`     // hot root whose traversal reached Func
	Message  string   `json:"message"`
}

func (d PerfDiag) String() string {
	return fmt.Sprintf("%s: perf[%s]: %s in hot-path function %s (reachable from %s)",
		d.Position, d.Kind, d.Message, d.Func, d.Root)
}

// CompilerDiags builds the module at root with GCDiagFlags and parses the
// diagnostic stream. Patterns default to ./... so the join sees every
// package the call graph does.
func CompilerDiags(root string, patterns []string) ([]RawDiag, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"build", "-gcflags=" + GCDiagFlags}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("analysis: go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return ParseCompilerDiags(string(out)), nil
}

// ParseCompilerDiags extracts the escape, inlining-failure, and
// bounds-check records from compiler diagnostic output. Everything else —
// positive inlining decisions, parameter-leak detail, "does not escape"
// confirmations, flow traces, package headers — is deliberately dropped:
// the perf layer budgets costs, not explanations.
func ParseCompilerDiags(output string) []RawDiag {
	var out []RawDiag
	seen := make(map[string]bool)
	for _, line := range strings.Split(output, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		file, lineNo, col, msg, ok := splitDiagLine(line)
		if !ok {
			continue
		}
		kind, message, ok := classifyDiag(msg)
		if !ok {
			continue
		}
		d := RawDiag{File: filepath.ToSlash(file), Line: lineNo, Col: col,
			Kind: kind, Message: message}
		key := fmt.Sprintf("%s:%d:%d:%s:%s", d.File, d.Line, d.Col, d.Kind, d.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	return out
}

// splitDiagLine parses the compiler's `file.go:line:col: message` shape.
func splitDiagLine(line string) (file string, lineNo, col int, msg string, ok bool) {
	rest := line
	i := strings.Index(rest, ".go:")
	if i < 0 {
		return "", 0, 0, "", false
	}
	file = rest[:i+3]
	rest = rest[i+4:]
	j := strings.Index(rest, ":")
	if j < 0 {
		return "", 0, 0, "", false
	}
	lineNo, err := strconv.Atoi(rest[:j])
	if err != nil {
		return "", 0, 0, "", false
	}
	rest = rest[j+1:]
	k := strings.Index(rest, ":")
	if k < 0 {
		return "", 0, 0, "", false
	}
	col, err = strconv.Atoi(rest[:k])
	if err != nil {
		return "", 0, 0, "", false
	}
	msg = strings.TrimSpace(rest[k+1:])
	return file, lineNo, col, msg, msg != ""
}

// classifyDiag maps one compiler message to a budgeted kind, or drops it.
func classifyDiag(msg string) (PerfKind, string, bool) {
	switch {
	case strings.HasPrefix(msg, "flow:") || strings.HasPrefix(msg, "from "):
		return "", "", false // -m -m escape flow traces
	case strings.HasPrefix(msg, "leaking param"):
		return "", "", false // a leak is not itself an allocation
	case strings.Contains(msg, "does not escape"):
		return "", "", false
	case strings.HasPrefix(msg, `"`):
		// A constant string "escaping" into an interface (panic messages,
		// inlined or not) is materialized as static data by the compiler,
		// not a runtime allocation — nothing to budget.
		return "", "", false
	case strings.HasPrefix(msg, "moved to heap:"),
		strings.HasSuffix(msg, "escapes to heap"),
		strings.HasSuffix(msg, "escapes to heap:"):
		return PerfEscape, strings.TrimSuffix(msg, ":"), true
	case strings.HasPrefix(msg, "cannot inline "):
		return PerfNoInline, msg, true
	case msg == "Found IsInBounds":
		return PerfBoundsCheck, "bounds check (IsInBounds)", true
	case msg == "Found IsSliceInBounds":
		return PerfBoundsCheck, "bounds check (IsSliceInBounds)", true
	}
	return "", "", false
}

// funcExtent is one declared function's file range, for position joins.
type funcExtent struct {
	file      string // module-root-relative slash path
	startLine int
	endLine   int
	fi        *FuncInfo
}

// hotExtents indexes the hot set by file so raw diagnostics can be
// attributed by containment. Root is the loader's module root; compiler
// paths are relative to it.
func hotExtents(prog *Program, root string) map[string][]funcExtent {
	fset := prog.Fset
	idx := make(map[string][]funcExtent)
	for _, fi := range prog.FuncsInOrder() {
		if !prog.Hot[fi.Obj] {
			continue
		}
		start := fset.Position(fi.Decl.Pos())
		end := fset.Position(fi.Decl.End())
		file := start.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		idx[file] = append(idx[file], funcExtent{
			file: file, startLine: start.Line, endLine: end.Line, fi: fi,
		})
	}
	return idx
}

// JoinHot attributes raw compiler diagnostics to hot-path functions,
// dropping everything that lands outside the hot set. Inlining failures
// join at the function declaration itself (the compiler reports them
// there); escapes and bounds checks join by body containment. Escapes on
// panic-argument lines are exempt: a panicking simulator's allocation rate
// is irrelevant, and boxing a message for panic never happens on a run
// that completes. A `simlint:ignore perf
// <why>` comment on or above the diagnostic line suppresses it like any
// analyzer finding would be.
func JoinHot(prog *Program, root string, raws []RawDiag) []PerfDiag {
	idx := hotExtents(prog, root)
	var out []PerfDiag
	for _, raw := range raws {
		var fi *FuncInfo
		for _, ext := range idx[raw.File] {
			if raw.Line < ext.startLine || raw.Line > ext.endLine {
				continue
			}
			if raw.Kind == PerfNoInline && raw.Line != ext.startLine {
				continue // inline failures belong to the declaring line
			}
			// Nested declarations cannot overlap in Go; first hit wins.
			fi = ext.fi
			break
		}
		if fi == nil {
			continue // cold path: not budgeted
		}
		if raw.Kind == PerfEscape && onPanicLine(prog.Fset, fi, raw.Line) {
			continue
		}
		if perfSuppressed(prog.Fset, fi, raw) {
			continue
		}
		rootFn := fi.Obj
		if r := prog.HotRoot[fi.Obj]; r != nil {
			rootFn = r
		}
		out = append(out, PerfDiag{
			Kind:     raw.Kind,
			Position: fmt.Sprintf("%s:%d:%d", raw.File, raw.Line, raw.Col),
			Pkg:      modRelPkg(fi.Pkg.Path),
			Func:     funcDisplayName(fi.Obj),
			Root:     funcDisplayName(rootFn),
			Message:  raw.Message,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Position != out[j].Position {
			return out[i].Position < out[j].Position
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// onPanicLine reports whether line falls inside a panic call's extent in
// fi's body.
func onPanicLine(fset *token.FileSet, fi *FuncInfo, line int) bool {
	info := fi.Pkg.Info
	hit := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if hit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if b, okb := info.Uses[id].(*types.Builtin); !okb || b.Name() != "panic" {
			return true
		}
		if fset.Position(call.Pos()).Line <= line && line <= fset.Position(call.End()).Line {
			hit = true
			return false
		}
		return true
	})
	return hit
}

// perfSuppressed honours `simlint:ignore perf` comments for joined
// compiler diagnostics, reusing the analyzer suppression syntax.
func perfSuppressed(fset *token.FileSet, fi *FuncInfo, raw RawDiag) bool {
	for _, cg := range fi.File.Comments {
		for _, c := range cg.List {
			names, ok := parseIgnore(c.Text)
			if !ok || !names["perf"] && !names["all"] {
				continue
			}
			l := fset.Position(c.Pos()).Line
			if l == raw.Line || l == raw.Line-1 {
				return true
			}
		}
	}
	return false
}

// modRelPkg strips the module path from an import path, so budgets read
// as internal/pipeline rather than loosesim/internal/pipeline.
func modRelPkg(path string) string {
	if i := strings.Index(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
