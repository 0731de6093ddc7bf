package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

// TestGolden runs every analyzer over its fixture module and diffs the
// diagnostics against the // want comments. Each fixture holds flagged,
// clean, and allow-directive cases.
func TestGolden(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			RunGolden(t, a, fixture(a.Name))
		})
	}
}

// TestGoldenIsolation proves no analyzer fires outside its own contract:
// running the full suite over each fixture must produce exactly the
// fixture's wants (which name only the fixture's own analyzer), so a
// fixture clean for its analyzer is clean for every other one.
func TestGoldenIsolation(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			prog, err := Load(fixture(a.Name))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			diags := prog.Run(All())
			for _, d := range diags {
				if d.Analyzer != a.Name {
					t.Errorf("analyzer %s fired on the %s fixture: %s", d.Analyzer, a.Name, d)
				}
			}
		})
	}
}

// fakeTB records harness failures instead of failing the real test, so
// the harness itself can be put under test.
type fakeTB struct {
	errors []string
	fatals []string
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errors = append(f.errors, fmt.Sprintf(format, args...))
}
func (f *fakeTB) Fatalf(format string, args ...any) {
	f.fatals = append(f.fatals, fmt.Sprintf(format, args...))
}

// TestHarnessDetectsBrokenExpectations is the self-test the issue calls
// for: deliberately wrong want expectations must fail. A harness that
// passes everything would make every golden test above meaningless.
func TestHarnessDetectsBrokenExpectations(t *testing.T) {
	prog, err := Load(fixture("rawgoroutine"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := prog.Run([]*Analyzer{RawGoroutine})
	if len(diags) == 0 {
		t.Fatalf("fixture produced no diagnostics; the self-test needs at least one")
	}

	// An unexpected diagnostic (no want matches it) must Errorf: compare
	// against a program whose wants exist but whose diagnostics we replace
	// with ones at unconstrained positions.
	moved := make([]Diagnostic, len(diags))
	copy(moved, diags)
	for i := range moved {
		moved[i].Pos.Line += 1000 // no want lives down there
	}
	ft := &fakeTB{}
	CompareGolden(ft, RawGoroutine, prog, moved)
	var sawUnexpected, sawMissing bool
	for _, e := range ft.errors {
		if strings.Contains(e, "unexpected diagnostic") {
			sawUnexpected = true
		}
		if strings.Contains(e, "expected diagnostic matching") {
			sawMissing = true
		}
	}
	if !sawUnexpected {
		t.Errorf("harness accepted a diagnostic no want constrains; errors: %q", ft.errors)
	}
	if !sawMissing {
		t.Errorf("harness accepted an unmatched want; errors: %q", ft.errors)
	}

	// Dropping every diagnostic must fail each want as missing.
	ft = &fakeTB{}
	CompareGolden(ft, RawGoroutine, prog, nil)
	if len(ft.errors) == 0 {
		t.Errorf("harness passed with zero diagnostics against a fixture that expects findings")
	}

	// The true diagnostics against the true wants must pass — the fake TB
	// stays silent.
	ft = &fakeTB{}
	CompareGolden(ft, RawGoroutine, prog, diags)
	if len(ft.errors)+len(ft.fatals) != 0 {
		t.Errorf("harness failed a correct run: errors=%q fatals=%q", ft.errors, ft.fatals)
	}
}

// TestCheckDirectives exercises the directive validator: wrong verbs,
// missing reasons and unknown analyzer names are diagnostics; a
// well-formed directive is not.
func TestCheckDirectives(t *testing.T) {
	prog, err := Load(fixture("directives"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := CheckDirectives(prog, All())
	wantSubstrings := []string{
		"unknown lint directive",
		"malformed lint directive",
		"unknown analyzer",
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d directive diagnostics, want %d: %v", len(diags), len(wantSubstrings), diags)
	}
	for i, sub := range wantSubstrings {
		if !strings.Contains(diags[i].Message, sub) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, sub)
		}
		if diags[i].Analyzer != "fcmavet" {
			t.Errorf("diagnostic %d attributed to %q, want the fcmavet pseudo-analyzer", i, diags[i].Analyzer)
		}
	}
}

// TestRetiredDirectivesAreFindings: a directive of a retired verb, or an
// allow naming a retired analyzer, is a finding, so a leftover one cannot
// pass for a gate. The module is written here rather than kept as a
// fixture, so no source file of the repo carries the retired spellings.
func TestRetiredDirectivesAreFindings(t *testing.T) {
	dir := t.TempDir()
	src := `package lib

// Hot was once a declared zero-allocation hot path.
//
//lint:hotpath once per element
func Hot(x int) int {
	//lint:allow allocfree a retired analyzer
	return x + 1
}

// Clean was once a declared validator.
//
//lint:sanitizes n
func Clean(n int) int { return n }
`
	for name, body := range map[string]string{"go.mod": "module example.test\n\ngo 1.22\n", "lib.go": src} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := Load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := CheckDirectives(prog, All())
	want := []string{
		`unknown lint directive "//lint:hotpath"`,
		`unknown analyzer "allocfree"`,
		`unknown lint directive "//lint:sanitizes"`,
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d directive diagnostics, want %d: %v", len(diags), len(want), diags)
	}
	for i, sub := range want {
		if !strings.Contains(diags[i].Message, sub) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, sub)
		}
	}
}

// TestCheckDirectivesCleanOnRealFixtures ensures every directive used in
// the golden fixtures is itself valid — the escape hatches the fixtures
// demonstrate must be the ones the driver accepts.
func TestCheckDirectivesCleanOnRealFixtures(t *testing.T) {
	for _, a := range All() {
		prog, err := Load(fixture(a.Name))
		if err != nil {
			t.Fatalf("load %s: %v", a.Name, err)
		}
		if diags := CheckDirectives(prog, All()); len(diags) != 0 {
			t.Errorf("%s fixture has invalid directives: %v", a.Name, diags)
		}
	}
}

// TestRegistry checks every analyzer is named, documented for `fcmavet
// -list` and runnable, under a name no other analyzer has
// (cmd/fcmavet's TestListIsTheRegistryInOrder pins the names).
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) == 0 {
		t.Fatal("registry is empty")
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestSuppressionScopes pins the three directive scopes against the
// rawgoroutine fixture's allow (line scope) and the f32purity fixture's
// doc-comment (decl scope) and file-allow (file scope) cases: the
// fixtures' wants already encode the expected outcomes, so a scope
// regression shows up as a golden diff in TestGolden. Here we only assert
// that suppressed findings are truly absent, not merely renamed, and that
// an allow covers the analyzer it names and no other.
func TestSuppressionScopes(t *testing.T) {
	prog, err := Load(fixture("f32purity"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := prog.Run([]*Analyzer{F32Purity})
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "oracle.go") {
			t.Errorf("file-allow failed to cover %s", d)
		}
	}

	prog, err = Load(fixture("rawgoroutine"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var covered token.Position
	for _, pass := range prog.Passes {
		for _, f := range pass.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//lint:allow rawgoroutine") {
						covered = prog.Fset.Position(c.Pos())
						covered.Line++
					}
				}
			}
		}
	}
	if covered.Line == 0 {
		t.Fatal("rawgoroutine fixture has no //lint:allow rawgoroutine case")
	}
	if !prog.suppressed("rawgoroutine", covered) {
		t.Errorf("line after the allow directive is not suppressed for rawgoroutine")
	}
	if prog.suppressed("ctxflow", covered) {
		t.Errorf("allow rawgoroutine must not suppress other analyzers")
	}
}
