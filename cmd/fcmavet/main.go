// Command fcmavet runs the repo's custom static-analysis suite: the
// AST+type-based analyzers (internal/lint) that mechanically enforce the
// contracts nothing else in `make check` fails on — panic containment via
// internal/safe, context threading, float32 kernel determinism,
// fsync-before-rename publication, bounded HTTP servers and metric naming
// (DESIGN.md §12 has the table).
//
// Usage:
//
//	fcmavet [-C dir] [-analyzers a,b] [./...]
//	fcmavet -list
//
// The package pattern is informational: fcmavet always analyzes every
// package of the enclosing module (the invariants are module-wide, and
// several analyzers need the whole program). -analyzers restricts the
// run to a comma-separated subset of the registry — handy when iterating
// on one contract; naming an unknown analyzer is an error (exit 2), not
// a silent no-op. Findings print one per line as
// `file:line:col: message [analyzer]`. Exit status is 0 on a clean tree,
// 1 when any diagnostic is reported, 2 on usage, load or internal errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fcma/internal/lint"
)

func main() {
	var (
		list   = flag.Bool("list", false, "print the analyzer registry with one-line docs and exit")
		dir    = flag.String("C", ".", "analyze the module containing this directory")
		subset = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	)
	flag.Parse()

	analyzers := lint.All()
	if *subset != "" {
		byName := make(map[string]*lint.Analyzer, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*lint.Analyzer
		for _, name := range strings.Split(*subset, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "fcmavet: unknown analyzer %q (see fcmavet -list)\n", name)
				os.Exit(2)
			}
			picked = append(picked, a)
		}
		if len(picked) == 0 {
			fmt.Fprintln(os.Stderr, "fcmavet: -analyzers named no analyzers")
			os.Exit(2)
		}
		analyzers = picked
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	prog, err := lint.Load(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fcmavet: %v\n", err)
		os.Exit(2)
	}
	diags := prog.Run(analyzers)
	// Directive validation always checks against the full registry: a
	// subset run must not misreport an allow for an unselected analyzer
	// as unknown.
	diags = append(diags, lint.CheckDirectives(prog, lint.All())...)
	lint.SortDiagnostics(diags)

	for _, d := range diags {
		fmt.Printf("%s:%d:%d: %s [%s]\n", relPath(prog.Dir, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fcmavet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// relPath renders file paths relative to the module root for stable,
// readable output.
func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return file
}
