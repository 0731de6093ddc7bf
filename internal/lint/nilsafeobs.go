package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NilSafeObs guards the nil-is-off discipline of the observability
// packages (internal/obs and below): a nil *Registry, *Counter, *Tracer,
// or *Active is the documented "instrumentation off" switch, so every
// pointer-receiver method on such a type must stay a cheap no-op on nil.
//
// A type opts into the contract by having at least one pointer-receiver
// method that opens with a nil-receiver guard; from then on, any
// pointer-receiver method of that type that touches a receiver field
// without opening with `if recv == nil { ... }` is flagged — the exact
// shape of the bug where a newly added method panics the first
// uninstrumented run. Methods that only delegate to other (guarded)
// methods need no guard of their own.
var NilSafeObs = &Analyzer{
	Name: "nilsafeobs",
	Doc:  "obs/trace pointer-receiver methods must open with a nil-receiver guard",
	Run: func(p *Pass) {
		if !pathWithin(p.Path, "internal/obs") {
			return
		}
		type method struct {
			decl    *ast.FuncDecl
			guarded bool
		}
		byType := make(map[*types.TypeName][]method)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
					continue
				}
				tv, ok := p.Info.Types[fd.Recv.List[0].Type]
				if !ok {
					continue
				}
				ptr, ok := tv.Type.(*types.Pointer)
				if !ok {
					continue
				}
				named, ok := ptr.Elem().(*types.Named)
				if !ok {
					continue
				}
				tn := named.Obj()
				byType[tn] = append(byType[tn], method{decl: fd, guarded: opensWithNilGuard(p, fd)})
			}
		}
		for tn, methods := range byType {
			optedIn := false
			for _, m := range methods {
				if m.guarded {
					optedIn = true
					break
				}
			}
			if !optedIn {
				continue
			}
			for _, m := range methods {
				if m.guarded {
					continue
				}
				if fieldPos := receiverFieldAccess(p, m.decl); fieldPos.IsValid() {
					p.Reportf(m.decl.Name.Pos(), "method (*%s).%s dereferences its receiver without a leading nil guard; a nil %s is the instrumentation-off switch and must stay a no-op", tn.Name(), m.decl.Name.Name, tn.Name())
				}
			}
		}
	},
}

// opensWithNilGuard reports whether the method's first statement is an if
// whose condition compares the receiver against nil.
func opensWithNilGuard(p *Pass, fd *ast.FuncDecl) bool {
	recv := receiverIdent(fd)
	if recv == "" || len(fd.Body.List) == 0 {
		return false
	}
	ifStmt, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return false
	}
	found := false
	ast.Inspect(ifStmt.Cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.EQL {
			return true
		}
		if (identNamed(be.X, recv) && isNilIdent(p, be.Y)) || (identNamed(be.Y, recv) && isNilIdent(p, be.X)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// receiverFieldAccess returns the position of the first field selection
// on the method's receiver, or token.NoPos when the body never
// dereferences it (delegation and value uses are nil-safe).
func receiverFieldAccess(p *Pass, fd *ast.FuncDecl) token.Pos {
	recv := receiverIdent(fd)
	if recv == "" {
		return token.NoPos
	}
	pos := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !identNamed(sel.X, recv) {
			return true
		}
		if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			pos = sel.Pos()
			return false
		}
		return true
	})
	return pos
}

func receiverIdent(fd *ast.FuncDecl) string {
	names := fd.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return ""
	}
	return names[0].Name
}

func identNamed(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

func isNilIdent(p *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.Info.Uses[id].(*types.Nil)
	return isNil
}
