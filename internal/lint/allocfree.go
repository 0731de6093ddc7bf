package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Allocfree reports syntactically allocating constructs inside functions
// annotated //lint:hotpath: make/new/append, closure literals, map and
// slice composite literals, string concatenation, string↔[]byte/[]rune
// conversions, and fmt calls. It is the AST half of the zero-allocation
// gate; scripts/allocgate is the compiler half, holding the same
// functions to `go build -gcflags=-m` escape analysis. Cold branches
// (panic formatting, disabled-tracer paths) opt out per line with
// //lint:allow allocfree <reason>.
var Allocfree = &Analyzer{
	Name: "allocfree",
	Doc:  "//lint:hotpath functions must not contain allocating constructs",
	Run:  runAllocfree,
}

func runAllocfree(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			hot := false
			for _, c := range fd.Doc.List {
				if hotpathDirective(c.Text) {
					hot = true
					break
				}
			}
			if hot {
				checkHotBody(pass, fd)
			}
		}
	}
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, name, x)
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "hotpath %s allocates: closure literal", name)
			// Still descend: allocations inside the closure are on the hot
			// path too.
		case *ast.CompositeLit:
			if t := exprType(pass, x); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					pass.Reportf(x.Pos(), "hotpath %s allocates: map literal", name)
				case *types.Slice:
					pass.Reportf(x.Pos(), "hotpath %s allocates: slice literal", name)
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(exprType(pass, x.X)) {
				pass.Reportf(x.OpPos, "hotpath %s allocates: string concatenation", name)
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(exprType(pass, x.Lhs[0])) {
				pass.Reportf(x.TokPos, "hotpath %s allocates: string concatenation", name)
			}
		}
		return true
	})
}

func checkHotCall(pass *Pass, name string, call *ast.CallExpr) {
	// Builtin allocators.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				pass.Reportf(call.Pos(), "hotpath %s allocates: %s", name, b.Name())
			}
			return
		}
	}
	// string <-> []byte/[]rune conversions copy.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, exprType(pass, call.Args[0])
		if stringByteConv(to, from) {
			pass.Reportf(call.Pos(), "hotpath %s allocates: %s conversion copies", name, types.TypeString(to, nil))
		}
		return
	}
	if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "hotpath %s allocates: fmt.%s", name, fn.Name())
	}
}

// stringByteConv reports whether the conversion is string↔[]byte/[]rune.
func stringByteConv(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isStringType(to) && byteOrRuneSlice(from)) ||
		(byteOrRuneSlice(to) && isStringType(from))
}

func byteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func exprType(pass *Pass, e ast.Expr) types.Type {
	if tv, ok := pass.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
