package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// pathWithin reports whether importPath is the package seg names or a
// package below it, for any position of seg in the path — e.g.
// pathWithin("fcma/internal/blas", "internal/blas") and
// pathWithin("example.test/internal/blas/sub", "internal/blas") are both
// true. Matching on the tail of the path keeps the analyzers working
// identically on the real module and on synthetic test modules.
func pathWithin(importPath, seg string) bool {
	return strings.HasSuffix(importPath, "/"+seg) ||
		importPath == seg ||
		strings.Contains(importPath, "/"+seg+"/") ||
		strings.HasPrefix(importPath, seg+"/")
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions, and
// indirect calls.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPkgFunc reports whether the call invokes one of the named
// package-level functions of the package with the given import path.
func isPkgFunc(p *Pass, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// namedType returns the named type of t after stripping one level of
// pointer, or nil.
func namedType(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// typeIs reports whether t (or *t) is the named type pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool { return typeIs(t, "context", "Context") }

// funcHasCtxParam reports whether the function type declares a
// context.Context parameter.
func funcHasCtxParam(p *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := p.Info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}
