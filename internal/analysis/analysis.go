// Package analysis is the simulator's domain-specific static-analysis
// suite: a vet-style framework plus the analyzers behind cmd/simlint.
//
// A cycle-level simulator earns its keep by reproducing effects of a few
// percent ("Loose Loops Sink Chips" Figure 8 turns on a 4% IPC delta), so
// the invariants that protect those deltas — deterministic iteration,
// seeded randomness, validated configuration, bounded simulation loops,
// checked errors — are enforced by machine rather than by reviewer
// vigilance. The framework is stdlib-only (go/ast, go/parser, go/token,
// go/types); it must stay buildable offline.
//
// Suppression: a finding can be silenced with a line comment
//
//	// simlint:ignore <analyzer>[,<analyzer>...] [reason]
//
// placed on the offending line or on the line directly above it. Two
// analyzers additionally honour dedicated markers documented in their own
// files: `simlint:novalidate` (cfgvalidate) and `simlint:bounded`
// (loopbound), which read better at the use site than a generic ignore.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check over a typechecked package.
type Analyzer struct {
	// Name identifies the analyzer in reports, flags, and suppression
	// comments.
	Name string
	// Doc is a one-line description shown by `simlint -list`.
	Doc string
	// AppliesTo, when non-nil, restricts the analyzer to packages whose
	// import path it accepts. The driver consults it; tests that build a
	// Pass directly may bypass it deliberately.
	AppliesTo func(pkgPath string) bool
	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass)
}

// Pass carries one package's parsed and typechecked state to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Program holds the whole-program facts (call graph, hot-path
	// reachability) cross-package analyzers consume. The driver populates
	// it; analyzers that need it must tolerate nil (single-package runs).
	Program *Program

	diagnostics []Diagnostic
	suppressed  map[string]map[int]bool // file -> line -> ignored for this analyzer
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Position string         `json:"position"` // file:line:col
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a suppression comment covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressedAt(position) {
		return
	}
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Position: fmt.Sprintf("%s:%d:%d", position.Filename, position.Line, position.Column),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diagnostics }

func (p *Pass) suppressedAt(pos token.Position) bool {
	return p.suppressed[pos.Filename][pos.Line]
}

// NewPass builds a Pass over files, computing the suppression table for
// analyzer from `simlint:ignore` comments.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	p := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info,
		suppressed: make(map[string]map[int]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseIgnore(c.Text)
				if !ok || !names[a.Name] && !names["all"] {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := p.suppressed[pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					p.suppressed[pos.Filename] = lines
				}
				// The comment covers its own line and, so that whole-line
				// comments work, the line below it.
				lines[pos.Line] = true
				lines[pos.Line+1] = true
			}
		}
	}
	return p
}

// parseIgnore extracts the analyzer list from a `simlint:ignore` comment.
func parseIgnore(text string) (map[string]bool, bool) {
	text = strings.TrimPrefix(strings.TrimPrefix(text, "//"), "/*")
	text = strings.TrimSpace(text)
	const marker = "simlint:ignore"
	if !strings.HasPrefix(text, marker) {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, marker))
	field := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		field = rest[:i]
	}
	if field == "" {
		return map[string]bool{"all": true}, true
	}
	names := make(map[string]bool)
	for _, n := range strings.Split(field, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names[n] = true
		}
	}
	return names, true
}

// hasMarker reports whether any comment in file on line (or the line above)
// carries the given simlint marker, e.g. "simlint:bounded".
func hasMarker(fset *token.FileSet, file *ast.File, line int, marker string) bool {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, marker) {
				continue
			}
			l := fset.Position(c.Pos()).Line
			if l == line || l == line-1 {
				return true
			}
		}
	}
	return false
}

// All returns every analyzer in the suite, in report order.
func All() []*Analyzer {
	return []*Analyzer{
		DetMap(),
		NoClock(),
		CfgValidate(),
		LoopBound(),
		ErrCheckLite(),
		HotAlloc(),
		Exhaustive(),
		FieldReset(),
		SinkGuard(),
		IfaceDispatch(),
		DeferHot(),
		AppendHot(),
	}
}

// ByName resolves a comma-separated analyzer list; "all" (or empty) selects
// the full suite.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" || list == "all" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, analyzerNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// internalOnly is the default AppliesTo: the simulator's internal packages,
// where determinism and hygiene invariants are enforced.
func internalOnly(pkgPath string) bool {
	return strings.Contains(pkgPath, "/internal/") || strings.HasPrefix(pkgPath, "internal/")
}
