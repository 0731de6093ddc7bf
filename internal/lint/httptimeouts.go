package lint

import (
	"go/ast"
	"go/types"
)

// HTTPTimeouts enforces the service-hardening contract from the fcma-serve
// PR: every http.Server composite literal must set ReadHeaderTimeout. The
// zero value means "wait forever for request headers", so one client
// trickling bytes (slowloris) pins a connection — and a goroutine — per
// socket until the box runs out. The repo's servers all live behind this
// check; a deliberate exception (e.g. a long-poll endpoint fronted by a
// proxy that owns the timeout) takes a //lint:allow httptimeouts
// directive. Test files are exempt (httptest owns its server config).
var HTTPTimeouts = &Analyzer{
	Name: "httptimeouts",
	Doc:  "http.Server literals must set ReadHeaderTimeout (slowloris guard)",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if !isHTTPServer(p, cl) {
					return true
				}
				for _, el := range cl.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "ReadHeaderTimeout" {
						return true
					}
				}
				p.Reportf(cl.Pos(), "http.Server literal without ReadHeaderTimeout; a client trickling header bytes holds a connection and its goroutine forever — set ReadHeaderTimeout")
				return true
			})
		}
	},
}

// isHTTPServer reports whether the composite literal's resolved type is
// net/http.Server (matching aliases and dot-imports through the type
// checker rather than the source text).
func isHTTPServer(p *Pass, cl *ast.CompositeLit) bool {
	tv, ok := p.Info.Types[cl]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Server"
}
