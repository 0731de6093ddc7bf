// Package pipe holds deliberately broken //lint: directives for the
// CheckDirectives test, which asserts on them directly (a want comment
// cannot share a line with a directive — line comments run to EOL).
package pipe

// Work is a stand-in so the directives have something to annotate.
func Work() int {
	//lint:suppress rawgoroutine wrong verb
	x := 1
	//lint:allow rawgoroutine
	x++
	//lint:allow nosuchanalyzer the registry has never heard of it
	x++
	//lint:allow rawgoroutine a well-formed directive is not reported
	x++
	return x
}
