package lint

import "go/ast"

// RawGoroutine enforces the panic-containment contract from the
// robustness PRs: all goroutine spawning routes through internal/safe
// (safe.Go or the safe.Parallel* drivers), whose recovery turns a
// panicking goroutine into a structured *PipelineError instead of a dead
// process. A raw `go` statement anywhere else reopens the
// process-killing panic path, so it is flagged; test files are exempt.
var RawGoroutine = &Analyzer{
	Name: "rawgoroutine",
	Doc:  "go statements outside internal/safe bypass panic containment",
	Run: func(p *Pass) {
		if pathWithin(p.Path, "internal/safe") {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.Reportf(g.Pos(), "raw go statement outside internal/safe; spawn through safe.Go or a safe.Parallel* driver so panics stay contained")
				}
				return true
			})
		}
	},
}
