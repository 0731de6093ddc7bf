// Package lint is fcmavet's analysis framework: a dependency-free
// miniature of the go/analysis model (stdlib go/ast + go/types only) that
// mechanically enforces the repo's load-bearing contracts that no test
// holds — panic containment, context flow, float32 kernel determinism,
// crash-safe publication, bounded HTTP servers and metric naming. Each
// invariant is one Analyzer; the cmd/fcmavet driver loads every package
// in the module and runs the whole suite, so a contract introduced in one
// PR cannot silently rot in the next.
//
// Findings can be suppressed where a contract is deliberately bent, but
// only with a stated reason (see the directive syntax on Directive):
//
//	//lint:allow <analyzer> <reason>       same line, the line below, or —
//	                                       in a declaration's doc comment —
//	                                       the whole declaration
//	//lint:file-allow <analyzer> <reason>  the whole file
//
// A directive that does not parse, that uses another verb, or that names
// an unknown analyzer is itself a diagnostic (CheckDirectives), so the
// escape hatch cannot decay into noise.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one invariant checker. Run inspects a single package
// (through its Pass) and reports findings; an analyzer that needs a
// program-wide view reaches sibling packages via Pass.Prog.Passes.
type Analyzer struct {
	// Name is the registry key, used in diagnostics and allow directives.
	Name string
	// Doc is a one-line description printed by `fcmavet -list`.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	// Prog is the whole loaded program, for cross-package analyzers.
	Prog *Program
	// Path is the package's import path within the module.
	Path string
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the package's type information (Types, Defs, Uses,
	// Selections).
	Info *types.Info
	// Files are the package's parsed source files.
	Files []*ast.File

	analyzer *Analyzer
	sink     *[]Diagnostic
}

// Reportf records a diagnostic at pos unless an allow directive covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	if p.Prog.suppressed(p.analyzer.Name, position) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      position,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the reporting analyzer.
	Analyzer string
	// Message describes the contract violation.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Run executes the analyzers over every package of the program and
// returns the surviving (non-suppressed) diagnostics sorted by position.
func (prog *Program) Run(analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pass := range prog.Passes {
			p := *pass
			p.analyzer = a
			p.sink = &diags
			a.Run(&p)
		}
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, column, then analyzer,
// so runs are deterministic and diffable.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Directive is one parsed //lint: comment.
type Directive struct {
	// Analyzer is the analyzer the directive silences.
	Analyzer string
	// Reason is the mandatory justification.
	Reason string
	// File scopes file-allow directives; Line/End scope allow directives
	// (End > Line for declaration-scoped ones).
	File      string
	Line, End int
	// Pos locates the directive itself.
	Pos token.Position
}

const (
	allowPrefix     = "//lint:allow"
	fileAllowPrefix = "//lint:file-allow"
	directivePrefix = "//lint:"
)

// parseDirective splits an allow comment into analyzer and reason;
// ok is false when either part is missing.
func parseDirective(text, prefix string) (analyzer, reason string, ok bool) {
	rest := strings.TrimPrefix(text, prefix)
	if rest == text || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", "", false
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

// suppression is the per-program directive index.
type suppression struct {
	// fileAllows maps filename -> set of analyzer names allowed file-wide.
	fileAllows map[string]map[string]bool
	// spans are line- and declaration-scoped allows.
	spans []Directive
}

// suppressed reports whether an allow directive covers the diagnostic.
func (prog *Program) suppressed(analyzer string, pos token.Position) bool {
	s := prog.supp
	if s == nil {
		return false
	}
	if s.fileAllows[pos.Filename][analyzer] {
		return true
	}
	for _, d := range s.spans {
		if d.Analyzer == analyzer && d.File == pos.Filename && pos.Line >= d.Line && pos.Line <= d.End {
			return true
		}
	}
	return false
}

// buildSuppression indexes every allow directive in the program. A
// line-scoped //lint:allow covers its own line and the next; one inside a
// declaration's doc comment covers the whole declaration.
func buildSuppression(fset *token.FileSet, passes []*Pass) *suppression {
	s := &suppression{fileAllows: make(map[string]map[string]bool)}
	for _, pass := range passes {
		for _, f := range pass.Files {
			// Doc-comment directives widen to the declaration they document.
			docs := make(map[*ast.CommentGroup][2]int)
			for _, decl := range f.Decls {
				var doc *ast.CommentGroup
				switch d := decl.(type) {
				case *ast.FuncDecl:
					doc = d.Doc
				case *ast.GenDecl:
					doc = d.Doc
				}
				if doc != nil {
					docs[doc] = [2]int{fset.Position(decl.Pos()).Line, fset.Position(decl.End()).Line}
				}
			}
			for _, cg := range f.Comments {
				declSpan, isDoc := docs[cg]
				for _, c := range cg.List {
					if a, _, ok := parseDirective(c.Text, fileAllowPrefix); ok {
						file := fset.Position(c.Pos()).Filename
						if s.fileAllows[file] == nil {
							s.fileAllows[file] = make(map[string]bool)
						}
						s.fileAllows[file][a] = true
						continue
					}
					a, reason, ok := parseDirective(c.Text, allowPrefix)
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					d := Directive{Analyzer: a, Reason: reason, File: pos.Filename, Line: pos.Line, End: pos.Line + 1, Pos: pos}
					if isDoc {
						d.Line, d.End = declSpan[0], declSpan[1]
					}
					s.spans = append(s.spans, d)
				}
			}
		}
	}
	return s
}

// CheckDirectives validates every //lint: comment in the program: other
// verbs (a retired directive's included), malformed directives (missing
// analyzer or reason) and directives naming an analyzer not in the
// registry are reported, attributed to the "fcmavet" pseudo-analyzer. The
// escape hatch stays load-bearing only if it cannot silently misfire.
func CheckDirectives(prog *Program, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: pos, Analyzer: "fcmavet", Message: fmt.Sprintf(format, args...)})
	}
	for _, pass := range prog.Passes {
		for _, f := range pass.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					var analyzer string
					var ok bool
					switch {
					case strings.HasPrefix(c.Text, fileAllowPrefix):
						analyzer, _, ok = parseDirective(c.Text, fileAllowPrefix)
					case strings.HasPrefix(c.Text, allowPrefix):
						analyzer, _, ok = parseDirective(c.Text, allowPrefix)
					default:
						report(pos, "unknown lint directive %q (want //lint:allow or //lint:file-allow)", firstWord(c.Text))
						continue
					}
					if !ok {
						report(pos, "malformed lint directive %q: want //lint:allow <analyzer> <reason>", c.Text)
						continue
					}
					if !known[analyzer] {
						report(pos, "lint directive names unknown analyzer %q", analyzer)
					}
				}
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

func firstWord(s string) string {
	if f := strings.Fields(s); len(f) > 0 {
		return f[0]
	}
	return s
}
