package fcma

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestSourceContracts holds six rules over every non-test Go file of the
// module (testdata/ and hidden directories skipped); DESIGN.md §12 gives
// the failure each prevents and the probe that fails this test without it.
//   - rawgoroutine: no go statement outside internal/safe, whose spawners
//     turn a panic into a task error. obs cannot import safe (a cycle), so
//     its one contained spawn point, obs/spawn.go, is allowed by name.
//   - ctxflow: a function or literal that receives a context.Context never
//     calls context.Background() or TODO(), which would sever cancellation.
//   - httptimeouts: every http.Server literal sets ReadHeaderTimeout.
//   - fsyncrename: the only rename is chaos.WriteFileAtomic's, which syncs
//     the file before publishing it, so a crash cannot publish a torn one.
//   - obsnames: outside internal/obs, every instrument is named where it
//     is registered, by a string literal or a + chain of literals and
//     per-state parts, that follows the convention (checkMetricName).
//     An interval (a span and one histogram observation, opened by Begin
//     on a registry, which times it on stage_*_seconds, or on a histogram
//     handle, such as a tenant's labeled series) is named by a string
//     literal alone, and no span is opened under an interval's name by
//     hand: the names are collected into one list, which the test logs.
//   - leafboundary: no package an entry point that serves, runs or
//     distributes an analysis imports, directly or not, is an
//     experiment-only leaf: the machine model (internal/mic/...,
//     internal/report) or the paper's comparators (internal/baseline).
//     Only cmd/fcma-bench, examples and tests reach them.
func TestSourceContracts(t *testing.T) {
	fset := token.NewFileSet()
	parsed := 0
	deps := map[string][]string{}  // package directory -> module packages its files import
	intervals := map[string]bool{} // the names every Begin call opens, on a registry or a histogram
	var spans []*ast.BasicLit      // names spans are opened under by hand
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		parsed++
		path = filepath.ToSlash(path)
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "fcma/") {
				deps[dir] = append(deps[dir], strings.TrimPrefix(p, "fcma/"))
			}
		}
		report := func(n ast.Node, format string, args ...any) {
			t.Errorf("%s: "+format, append([]any{fset.Position(n.Pos())}, args...)...)
		}
		ctxPkg, httpPkg := importName(f, "context"), importName(f, "net/http")
		var ctxFuncs []ast.Node // every function that receives a context
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
			for _, p := range ft.Params.List {
				if isPkgSel(p.Type, ctxPkg, "Context") {
					ctxFuncs = append(ctxFuncs, n)
					break
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !strings.HasPrefix(path, "internal/safe/") && path != "internal/obs/spawn.go" {
					report(n, "raw go statement outside internal/safe; spawn through safe.Go or a safe.Parallel* driver so a panic fails one task, not the process")
				}
			case *ast.CompositeLit:
				if isPkgSel(n.Type, httpPkg, "Server") && !hasKey(n, "ReadHeaderTimeout") {
					report(n, "http.Server literal without ReadHeaderTimeout; a client trickling header bytes holds its connection for ever")
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if isPkgSel(sel, ctxPkg, "Background") || isPkgSel(sel, ctxPkg, "TODO") {
					for _, fn := range ctxFuncs {
						if fn.Pos() <= n.Pos() && n.Pos() < fn.End() {
							report(n, "context.%s() inside a function that receives a context.Context; forward the ctx instead of severing cancellation", sel.Sel.Name)
							break
						}
					}
				}
				if sel.Sel.Name == "Rename" && !strings.HasPrefix(path, "internal/chaos/") {
					report(n, "Rename outside internal/chaos; publish a file through chaos.WriteFileAtomic, which syncs it first")
				}
				if (sel.Sel.Name == "StartSpan" || sel.Sel.Name == "StartWorkerSpan") && len(n.Args) == 2 {
					if lit, ok := n.Args[1].(*ast.BasicLit); ok {
						spans = append(spans, lit)
					}
				}
				kind, ok := obsNameMethods[sel.Sel.Name]
				if !ok || len(n.Args) == 0 || strings.HasPrefix(path, "internal/obs/") {
					return true
				}
				if kind == obsKindInterval {
					name, ok := "", false
					if lit, isLit := n.Args[len(n.Args)-1].(*ast.BasicLit); isLit {
						name, ok = metricName(lit)
					}
					if !ok {
						report(n, "Begin name is not a string literal; name the interval where it is opened so the interval list is complete")
					} else if msg := checkMetricName(name, kind); msg != "" {
						report(n, "interval name %q %s", name, msg)
					} else {
						intervals[name] = true
					}
					return true
				}
				if name, ok := metricName(n.Args[0]); !ok {
					report(n, "%s name has no string literal; write the name where the instrument is registered so it can be checked", sel.Sel.Name)
				} else if msg := checkMetricName(name, kind); msg != "" {
					report(n.Args[0], "metric name %q %s", name, msg)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 100 {
		t.Fatalf("parsed %d files; the walk did not reach the module", parsed)
	}
	names := make([]string, 0, len(intervals))
	for name := range intervals {
		names = append(names, name)
	}
	sort.Strings(names)
	t.Logf("intervals (Begin on a registry or a histogram): %s", strings.Join(names, " "))
	for _, lit := range spans {
		if name, _ := strconv.Unquote(lit.Value); intervals[name] {
			t.Errorf("%s: span %q opened by hand; it is an interval, which Begin opens with its histogram (on the registry, or on the histogram handle that times it)", fset.Position(lit.Pos()), name)
		}
	}
	for _, root := range []string{".", "cmd/fcma-run", "cmd/fcma-cluster", "cmd/fcma-serve", "cmd/fcma-gen"} {
		if len(deps[root]) == 0 {
			t.Errorf("leafboundary: the walk found no module imports in %s", root)
		}
		via := map[string]string{root: ""} // package -> the package that first imported it
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			pkg := queue[0]
			if pkg == "internal/report" || pkg == "internal/baseline" || pkg == "internal/mic" || strings.HasPrefix(pkg, "internal/mic/") {
				chain := pkg
				for p := via[pkg]; p != ""; p = via[p] {
					chain = p + " -> " + chain
				}
				t.Errorf("leafboundary: %s imports an experiment-only leaf (the machine model or the paper's comparators): %s", root, chain)
				continue
			}
			for _, dep := range deps[pkg] {
				if _, seen := via[dep]; !seen {
					via[dep] = pkg
					queue = append(queue, dep)
				}
			}
		}
	}
}

// importName returns the name a file refers to the import path by: its
// rename, the path's last element, or "" when the file does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// isPkgSel reports whether e is pkg.name for an imported package pkg.
func isPkgSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || pkg == "" || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// metricName renders a name expression, a string literal or a + chain
// with at least one, with every operand that is not a literal as "x": a
// name built per state is checked on its fixed parts.
func metricName(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		s, err := strconv.Unquote(e.Value)
		return s, e.Kind == token.STRING && err == nil
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			l, lok := metricName(e.X)
			r, rok := metricName(e.Y)
			return l + r, lok || rok
		}
	}
	return "x", false
}

// hasKey reports whether a keyed composite literal sets the field.
func hasKey(cl *ast.CompositeLit, field string) bool {
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
				return true
			}
		}
	}
	return false
}

// obsNameKind classifies an instrument-creation method by the suffix
// convention its names must follow.
type obsNameKind int

const (
	obsKindCounter obsNameKind = iota
	obsKindGauge
	obsKindHistogram
	obsKindInterval
)

var obsNameMethods = map[string]obsNameKind{
	"Counter":   obsKindCounter,
	"Gauge":     obsKindGauge,
	"Histogram": obsKindHistogram,
	"Begin":     obsKindInterval,
}

// checkMetricName returns "" when name follows the conventions for its
// instrument kind, or the violation description.
func checkMetricName(name string, kind obsNameKind) string {
	if name == "" {
		return "is empty"
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || (c == '/' && kind == obsKindInterval) {
			continue
		}
		return "is not lowercase snake_case (allowed: [a-z0-9_])"
	}
	if c := name[0]; c < 'a' || c > 'z' {
		return "must start with a lowercase letter"
	}
	switch kind {
	case obsKindCounter:
		if !strings.HasSuffix(name, "_total") {
			return "is a counter and must end in _total"
		}
	case obsKindHistogram:
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
			return "is a histogram and must carry a unit suffix (_seconds or _bytes)"
		}
	case obsKindGauge:
		if strings.HasSuffix(name, "_total") {
			return "is a gauge and must not end in _total (reserved for counters)"
		}
		if !strings.Contains(name, "_") {
			return "lacks a subsystem prefix (want subsystem_name)"
		}
	case obsKindInterval:
		// A registry's Begin names the histogram stage_<name>_seconds
		// itself, and a histogram handle was named where it was resolved;
		// any snake_case (or /-separated) interval name is fine.
	}
	return ""
}
