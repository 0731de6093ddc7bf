package lint

import "go/ast"

// CtxFlow enforces the cancellation contract: a function that accepts a
// context.Context must thread that context downward. Calling
// context.Background() or context.TODO() inside such a function severs
// the cancellation chain — the callee outlives the caller's deadline and
// a SIGINT no longer stops the pipeline at the next checkpoint. Functions
// without a ctx parameter (the public non-Context wrappers) are free to
// mint a fresh Background.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "functions that accept a context must forward it, not mint Background/TODO",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			// First collect the source ranges of every function (decl or
			// literal) that declares a ctx parameter; a Background/TODO call
			// lexically inside any of them is severing an available context
			// (closures capture the outer ctx).
			type span struct{ lo, hi int }
			var ctxSpans []span
			ast.Inspect(f, func(n ast.Node) bool {
				var ft *ast.FuncType
				switch fn := n.(type) {
				case *ast.FuncDecl:
					ft = fn.Type
				case *ast.FuncLit:
					ft = fn.Type
				default:
					return true
				}
				if funcHasCtxParam(p, ft) {
					ctxSpans = append(ctxSpans, span{int(n.Pos()), int(n.End())})
				}
				return true
			})
			if len(ctxSpans) == 0 {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isPkgFunc(p, call, "context", "Background", "TODO") {
					return true
				}
				pos := int(call.Pos())
				for _, s := range ctxSpans {
					if pos >= s.lo && pos < s.hi {
						p.Reportf(call.Pos(), "context.%s() inside a function that already receives a context.Context; forward the ctx instead of severing cancellation", calleeFunc(p, call).Name())
						break
					}
				}
				return true
			})
		}
	},
}
