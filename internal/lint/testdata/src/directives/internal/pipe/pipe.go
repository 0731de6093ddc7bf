// Package pipe holds deliberately broken //lint: directives for the
// CheckDirectives test, which asserts on them directly (a want comment
// cannot share a line with a directive — line comments run to EOL).
package pipe

// Work is a stand-in so the directives have something to annotate.
func Work() int {
	//lint:suppress noclock wrong verb
	x := 1
	//lint:allow noclock
	x++
	//lint:allow nosuchanalyzer the registry has never heard of it
	x++
	//lint:allow noclock a well-formed directive is not reported
	x++
	return x
}

// Checkish carries a sanitizes directive with no <what> clause.
//
//lint:sanitizes taintflow
func Checkish(s string) bool {
	//lint:sanitizes taintflow a body comment is not a doc comment
	if s == "" {
		return false
	}
	//lint:hotpath a body comment is not a doc comment either
	return true
}

// Mystery names an analyzer the registry has never heard of.
//
//lint:sanitizes nosuchanalyzer checks nothing anyone looks for
func Mystery(s string) bool { return s != "" }

// Valid is a well-formed sanitizer annotation: not reported.
//
//lint:sanitizes taintflow rejects every input, which is certainly safe
func Valid(s string) bool { return false }

// Misdirected names a registered analyzer that never reads sanitizer
// annotations, so the directive would do nothing.
//
//lint:sanitizes ctxflow checks a context nobody asked about
func Misdirected(s string) bool { return false }

// Hot is a well-formed hotpath annotation: not reported.
//
//lint:hotpath kept allocation-free by inspection
func Hot(x int) int { return x + 1 }
