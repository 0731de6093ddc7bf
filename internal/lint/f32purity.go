package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// kernelPaths are the float32 hot-path packages: the paper's merged
// correlation pipeline and PhiSVM depend on reproducible float32
// arithmetic, so float64 must not creep into these kernels unannounced.
var kernelPaths = []string{"internal/blas", "internal/corr", "internal/svm", "internal/norm"}

// F32Purity guards float32 kernel determinism. Inside the kernel
// packages it flags the ways float64 enters a computation — float64(x)
// conversions, float64 arithmetic (including op=-assignments), and
// float64 buffer allocations. Deliberate float64 use (the reference
// solver, numerically hardened accumulators, final accuracy reporting)
// is annotated with //lint:allow or //lint:file-allow directives stating
// the reason, so every float64 site in a kernel package is explicit and
// reviewed.
var F32Purity = &Analyzer{
	Name: "f32purity",
	Doc:  "float64 creep in the float32 kernel packages (blas, corr, svm, norm)",
	Run: func(p *Pass) {
		kernel := false
		for _, kp := range kernelPaths {
			if pathWithin(p.Path, kp) {
				kernel = true
				break
			}
		}
		if !kernel {
			return
		}
		isF64 := func(t types.Type) bool {
			b, ok := t.Underlying().(*types.Basic)
			return ok && b.Kind() == types.Float64
		}
		elemF64 := func(t types.Type) bool {
			switch u := t.Underlying().(type) {
			case *types.Slice:
				return isF64(u.Elem())
			case *types.Array:
				return isF64(u.Elem())
			}
			return false
		}
		for _, f := range p.Files {
			// Pre-order walk; once a node is reported its subtree is skipped
			// so one expression yields one diagnostic.
			ast.Inspect(f, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.CallExpr:
					if tv, ok := p.Info.Types[e.Fun]; ok && tv.IsType() && isF64(tv.Type) {
						p.Reportf(e.Pos(), "float64 conversion on the float32 hot path; keep kernel arithmetic in float32 or annotate with //lint:allow f32purity <reason>")
						return false
					}
					if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
						if b, ok := p.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "new") {
							if tv, ok := p.Info.Types[e]; ok && (elemF64(tv.Type) || (b.Name() == "new" && isF64(tv.Type.Underlying().(*types.Pointer).Elem()))) {
								p.Reportf(e.Pos(), "float64 buffer allocation on the float32 hot path; annotate deliberate float64 accumulators with //lint:allow f32purity <reason>")
								return false
							}
						}
					}
				case *ast.BinaryExpr:
					switch e.Op {
					case token.ADD, token.SUB, token.MUL, token.QUO:
						if tv, ok := p.Info.Types[e]; ok && isF64(tv.Type) {
							p.Reportf(e.Pos(), "float64 arithmetic on the float32 hot path; keep kernel math in float32 or annotate with //lint:allow f32purity <reason>")
							return false
						}
					}
				case *ast.AssignStmt:
					switch e.Tok {
					case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
						if tv, ok := p.Info.Types[e.Lhs[0]]; ok && isF64(tv.Type) {
							p.Reportf(e.Pos(), "float64 compound assignment on the float32 hot path; keep kernel math in float32 or annotate with //lint:allow f32purity <reason>")
							return false
						}
					}
				case *ast.CompositeLit:
					if tv, ok := p.Info.Types[e]; ok && elemF64(tv.Type) {
						p.Reportf(e.Pos(), "float64 literal buffer on the float32 hot path; annotate deliberate float64 data with //lint:allow f32purity <reason>")
						return false
					}
				}
				return true
			})
		}
	},
}
