package lint

import (
	"fmt"
	"go/token"
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
// missing reasons, unknown analyzer names, and a hotpath annotation
// outside a doc comment are diagnostics; a well-formed directive is not.
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
		"//lint:hotpath must be in a function declaration's doc comment",
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

// TestRegistry pins the suite: the issue promises at least eight
// analyzers, each named and documented for `fcmavet -list`.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 8 {
		t.Fatalf("registry has %d analyzers, want at least 8", len(all))
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
	if !prog.Suppressed("rawgoroutine", covered) {
		t.Errorf("line after the allow directive is not suppressed for rawgoroutine")
	}
	if prog.Suppressed("allocfree", covered) {
		t.Errorf("allow rawgoroutine must not suppress other analyzers")
	}
}

// TestHotpaths pins the hotpath inventory that both allocfree and the
// scripts/allocgate compiler pass consume: every annotated function in
// the allocfree fixture, in declaration order, with sane line spans.
func TestHotpaths(t *testing.T) {
	prog, err := Load(fixture("allocfree"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	hps := Hotpaths(prog)
	var names []string
	for _, h := range hps {
		if h.File == "" || h.StartLine <= 0 || h.EndLine < h.StartLine {
			t.Errorf("hotpath %s has a bad location %s:%d-%d", h.Name, h.File, h.StartLine, h.EndLine)
		}
		if h.Decl == nil || h.Pass == nil {
			t.Errorf("hotpath %s is missing its declaration or pass", h.Name)
		}
		names = append(names, h.Name)
	}
	want := []string{"kernel.Dot", "kernel.SumGrow", "kernel.Boxed", "kernel.Describe", "kernel.Rekey", "kernel.Traced", "kernel.tile", "kernel.Band"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("Hotpaths = %v, want %v", names, want)
	}
}
