// Package loading: a self-contained module walker + type checker. The
// driver must not depend on anything outside the standard library, so
// instead of go/packages this loader resolves module-local imports from
// its own parse cache and delegates standard-library imports to the
// toolchain's source importer (go/importer "source" mode), which
// type-checks GOROOT packages — including vendored ones like net/http's
// golang.org/x/net guts — without compiled export data.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Program is a fully loaded, type-checked module: one Pass per package,
// in deterministic (import-path) order.
type Program struct {
	// Fset is the file set all packages were parsed into.
	Fset *token.FileSet
	// Module is the module path from go.mod.
	Module string
	// Dir is the module root directory.
	Dir string
	// Passes holds one entry per loaded package, sorted by import path.
	Passes []*Pass

	supp *suppression
}

// The process-wide file set and standard-library importer are shared by
// every Load call: the source importer re-type-checks each stdlib package
// once per (importer, fset) pair, so sharing them keeps repeated loads
// (the golden-file tests load one small program per analyzer) from paying
// for fmt and sync over and over.
var (
	sharedFset    = token.NewFileSet()
	stdOnce       sync.Once
	stdImporter   types.ImporterFrom
	sharedLoadMu  sync.Mutex
	modulePathRE  = regexp.MustCompile(`(?m)^module\s+(\S+)`)
	skippableDirs = map[string]bool{"testdata": true, "vendor": true}
)

func stdlibImporter() types.ImporterFrom {
	stdOnce.Do(func() {
		// The source importer picks files with go/build's default context;
		// forcing cgo off selects the pure-Go fallbacks (netgo et al.) so
		// packages like net type-check without a C toolchain.
		build.Default.CgoEnabled = false
		stdImporter = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	})
	return stdImporter
}

// Load walks the module containing dir (found via its go.mod), parses
// every non-test package outside testdata/vendor/hidden directories, and
// type-checks them all. Any parse or type error fails the load: the
// analyzers' answers are only meaningful on a well-typed tree.
func Load(dir string) (*Program, error) {
	// go/build state and the shared fset are process-global; serialize.
	sharedLoadMu.Lock()
	defer sharedLoadMu.Unlock()

	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:   sharedFset,
		root:   root,
		module: module,
		std:    stdlibImporter(),
		units:  make(map[string]*unit),
	}
	if err := l.discover(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.units))
	for p := range l.units {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	prog := &Program{Fset: l.fset, Module: module, Dir: root}
	for _, p := range paths {
		u, err := l.check(p)
		if err != nil {
			return nil, err
		}
		pass := &Pass{Prog: prog, Path: p, Pkg: u.pkg, Info: u.info, Files: u.files}
		prog.Passes = append(prog.Passes, pass)
	}
	prog.supp = buildSuppression(prog.Fset, prog.Passes)
	return prog, nil
}

// findModule locates the enclosing go.mod and returns the module root and
// path.
func findModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			m := modulePathRE.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
			}
			return d, string(m[1]), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// unit is one package directory moving through parse → check.
type unit struct {
	dir      string
	files    []*ast.File
	pkg      *types.Package
	info     *types.Info
	checking bool
	checked  bool
	err      error
}

type loader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.ImporterFrom
	units  map[string]*unit // by import path
}

// discover walks the module tree and parses every package directory.
func (l *loader) discover() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (skippableDirs[name] || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var files []*ast.File
		pkgNames := make(map[string]bool)
		for _, e := range entries {
			fname := e.Name()
			if e.IsDir() || !strings.HasSuffix(fname, ".go") || strings.HasSuffix(fname, "_test.go") {
				continue
			}
			// Honor //go:build lines and GOOS/GOARCH suffixes as the go
			// tool does, so a package's per-architecture files (assembly
			// declarations and their portable stubs) do not collide.
			if ok, err := build.Default.MatchFile(path, fname); err != nil {
				return err
			} else if !ok {
				continue
			}
			f, err := parser.ParseFile(l.fset, filepath.Join(path, fname), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			pkgNames[f.Name.Name] = true
		}
		if len(files) == 0 {
			return nil
		}
		if len(pkgNames) > 1 {
			return fmt.Errorf("lint: %s: multiple package names in one directory", path)
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		ip := l.module
		if rel != "." {
			ip = l.module + "/" + filepath.ToSlash(rel)
		}
		l.units[ip] = &unit{dir: path, files: files}
		return nil
	})
}

// Import implements types.Importer: module-local paths resolve from the
// parse cache (type-checking on demand), everything else is assumed to be
// standard library and goes to the source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.units[path]; ok {
		u, err := l.check(path)
		if err != nil {
			return nil, err
		}
		return u.pkg, nil
	}
	return l.std.ImportFrom(path, l.root, 0)
}

// check type-checks one module-local package (and, recursively, its
// module-local dependencies).
func (l *loader) check(path string) (*unit, error) {
	u, ok := l.units[path]
	if !ok {
		return nil, fmt.Errorf("lint: package %s not found in module %s", path, l.module)
	}
	if u.checked {
		return u, u.err
	}
	if u.checking {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	u.checking = true
	defer func() { u.checking = false }()

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if len(typeErrs) < 20 {
				typeErrs = append(typeErrs, err.Error())
			}
		},
	}
	pkg, err := conf.Check(path, l.fset, u.files, info)
	if len(typeErrs) > 0 {
		u.err = fmt.Errorf("lint: type errors in %s:\n  %s", path, strings.Join(typeErrs, "\n  "))
	} else if err != nil {
		u.err = fmt.Errorf("lint: %s: %w", path, err)
	}
	u.pkg, u.info = pkg, info
	u.checked = true
	return u, u.err
}
