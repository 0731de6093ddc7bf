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

// Checkish carries a hotpath directive in its body, not its doc comment.
func Checkish(s string) bool {
	if s == "" {
		return false
	}
	//lint:hotpath a body comment is not a doc comment
	return true
}

// Hot is a well-formed hotpath annotation: not reported.
//
//lint:hotpath kept allocation-free by inspection
func Hot(x int) int { return x + 1 }
