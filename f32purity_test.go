package fcma

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"testing"
)

// f32Allowed are the float64 sites of the kernel packages, as a file (the
// whole file) or a file and a top-level function or method name. Each is
// float64 on purpose; the comment at the site says why.
var f32Allowed = map[string]bool{
	"internal/blas/tallskinny.go:fma32":     true, // exact product and TwoSum, rounded to float32 once
	"internal/corr/corr.go:pearson":         true, // the reference oracle
	"internal/corr/corr.go:normalizeVector": true, // the rss accumulation
	"internal/norm/scratch.go:grow":         true, // the moment buffers
	"internal/norm/scratch.go:sweep":        true, // the moments, E[X²]−E[X]²
	"internal/svm/cg.go":                    true, // the CG phase's state; its mat-vec is float32
	"internal/svm/cv.go:accuracy":           true, // final reporting
	"internal/svm/solver32.go":              true, // α, step, the seed's class sums and ρ
	"internal/svm/svm.go:decision":          true, // the decision-value sum
	"internal/svm/sweep.go":                 true, // the convergence test's gap
}

// TestF32Purity holds the float32 kernel packages (blas, corr, norm, svm:
// the paper's merged pipeline and PhiSVM) to float32 arithmetic. It
// type-checks each package's host-build files and fails on a float64
// conversion, float64 arithmetic or op-assignment, or a buffer of float64
// (make, new or a literal) outside f32Allowed. A float64 temporary in a
// kernel changes its float32 bits; the Go-vs-assembly pins see that only
// in a kernel that has an assembly twin, and this test sees it in the code
// that has none (DESIGN.md §12 has the probes).
func TestF32Purity(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, dir := range []string{"internal/blas", "internal/corr", "internal/norm", "internal/svm"} {
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		if _, err := (&types.Config{Importer: imp}).Check("fcma/"+dir, fset, files, info); err != nil {
			t.Fatal(err)
		}
		for i, f := range files {
			file := dir + "/" + bp.GoFiles[i]
			if f32Allowed[file] {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && f32Allowed[file+":"+fd.Name.Name] {
					continue
				}
				checkF32(t, fset, info, decl)
			}
		}
	}
}

// checkF32 reports each float64 site under n once: a reported node's
// subtree is not walked.
func checkF32(t *testing.T, fset *token.FileSet, info *types.Info, n ast.Node) {
	isF64 := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Kind() == types.Float64
	}
	elemF64 := func(t types.Type) bool { // a slice, array, pointer, map or channel of float64
		e, ok := t.Underlying().(interface{ Elem() types.Type })
		return ok && isF64(e.Elem())
	}
	arith := map[token.Token]bool{token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
		token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true, token.QUO_ASSIGN: true}
	ast.Inspect(n, func(n ast.Node) bool {
		what := ""
		switch e := n.(type) {
		case *ast.CallExpr:
			if tv := info.Types[e.Fun]; tv.IsType() && isF64(tv.Type) {
				what = "float64 conversion"
			} else if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "new") && elemF64(info.TypeOf(e)) {
					what = "float64 buffer"
				}
			}
		case *ast.BinaryExpr:
			if arith[e.Op] && isF64(info.TypeOf(e)) {
				what = "float64 arithmetic"
			}
		case *ast.AssignStmt:
			if arith[e.Tok] && isF64(info.TypeOf(e.Lhs[0])) {
				what = "float64 op-assignment"
			}
		case *ast.CompositeLit:
			if elemF64(info.TypeOf(e)) {
				what = "float64 literal buffer"
			}
		}
		if what != "" {
			t.Errorf("%s: %s in a float32 kernel package; keep kernel arithmetic in float32, or add the function to f32Allowed with the reason at the site", fset.Position(n.Pos()), what)
			return false
		}
		return true
	})
}
