// Package lint implements ruru's repo-invariant static analyzers and the
// minimal go/analysis-style framework they run on.
//
// The repo's hardest correctness properties are runtime invariants that do
// not show up in any unit test until they are violated under load: the
// tsdb lock order (commitMu → stripe mu → dirMu, the segment log's
// syncMu → mu as leaves), the federation rule that Aggregator.mu and aggProbe.mu never nest, the
// atomics-only discipline on counter fields, and the zero-allocation
// contract of the hot write paths. Each of these classes has produced a
// real bug that was caught late (see docs/TESTING.md "Static analysis").
// This package turns them into machine-checked properties: four analyzers
// — lockorder, atomicmix, noalloc, mustcheck — run by `go run
// ./cmd/ruru-vet ./...` as a blocking CI step.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf) but is built on the standard library only:
// the repo has no third-party dependencies and keeps it that way. Loading
// is export-data based (see load.go), so analysis of one package never
// re-type-checks its dependencies from source.
//
// # Suppressing a finding
//
// A diagnostic can be suppressed with a justified ignore directive:
//
//	//ruru:ignore <analyzer> <justification>
//
// placed either at the end of the offending line or on the line directly
// above it. The justification is mandatory — a bare directive is itself
// reported as an error — so every suppression documents why the invariant
// does not apply. Directives name exactly one analyzer; suppressing all
// analyzers at once is intentionally impossible.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant it encodes.
	Doc string
	// Run performs the check on one package, reporting findings through
	// the pass.
	Run func(*Pass) error
}

// A Pass connects one Analyzer run to one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ignoreDirective is one parsed //ruru:ignore comment.
type ignoreDirective struct {
	analyzer      string
	justification string
	pos           token.Position
	// line is the source line the directive applies to: its own line for
	// an end-of-line comment, the following line for a standalone one.
	line int
	used bool
}

var ignoreRe = regexp.MustCompile(`^//ruru:ignore\s+(\S+)\s*(.*)$`)

// parseIgnores extracts every //ruru:ignore directive from the package,
// keyed by (filename, effective line).
func parseIgnores(fset *token.FileSet, files []*ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		// Record which lines hold non-comment code, to decide whether a
		// directive is end-of-line (applies to its own line) or standalone
		// (applies to the next line).
		codeLines := map[int]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if _, ok := n.(*ast.Comment); ok {
				return false
			}
			codeLines[fset.Position(n.Pos()).Line] = true
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				d := &ignoreDirective{
					analyzer:      m[1],
					justification: strings.TrimSpace(m[2]),
					pos:           pos,
					line:          pos.Line,
				}
				if !codeLines[pos.Line] {
					d.line = pos.Line + 1
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// RunAnalyzers executes every analyzer on pkg and returns the surviving
// diagnostics: findings suppressed by a justified //ruru:ignore directive
// are dropped, directives with no justification or naming no known
// analyzer are themselves reported.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		all = append(all, pass.diags...)
	}

	directives := parseIgnores(pkg.Fset, pkg.Files)
	byKey := map[string][]*ignoreDirective{}
	for _, d := range directives {
		byKey[fmt.Sprintf("%s:%d:%s", d.pos.Filename, d.line, d.analyzer)] = append(
			byKey[fmt.Sprintf("%s:%d:%s", d.pos.Filename, d.line, d.analyzer)], d)
	}
	kept := all[:0]
	for _, diag := range all {
		key := fmt.Sprintf("%s:%d:%s", diag.Pos.Filename, diag.Pos.Line, diag.Analyzer)
		suppressed := false
		for _, d := range byKey[key] {
			if d.justification != "" {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, diag)
		}
	}
	for _, d := range directives {
		switch {
		case d.justification == "":
			kept = append(kept, Diagnostic{Pos: d.pos, Analyzer: "directive",
				Message: "//ruru:ignore requires a justification: //ruru:ignore <analyzer> <why>"})
		case !known[d.analyzer]:
			kept = append(kept, Diagnostic{Pos: d.pos, Analyzer: "directive",
				Message: fmt.Sprintf("//ruru:ignore names unknown analyzer %q", d.analyzer)})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return kept, nil
}

// derefNamed unwraps pointers and returns the named type beneath, or nil.
func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// namedFQN returns "pkgpath.TypeName" for a named type (generic origin
// name for instantiated generics), or "".
func namedFQN(n *types.Named) string {
	if n == nil {
		return ""
	}
	obj := n.Origin().Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
