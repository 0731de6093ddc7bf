package lint

// Taintflow reports untrusted input reaching a dangerous operation,
// printing the full source→sink path. Sources are HTTP request data
// (*net/http.Request parameters), MPI wire frame payloads (Message.Body
// in internal/mpi), and raw input bytes read inside the parsing packages
// (internal/mpi, internal/fmri, internal/nifti: a call there that takes an
// io.Reader, such as io.ReadFull, binary.Read or bufio.NewReader). Sinks
// are filesystem path construction (filepath.Join and the os.Open
// family), allocation sizes (make), and slice/array/string indexing and
// slice bounds. Flows are cut by validation guards that return and by
// functions annotated //lint:sanitizes taintflow; see dataflow.go for the
// exact rules and DESIGN.md §12 for the true positives it is held to and
// what is deliberately not tracked.
var Taintflow = &Analyzer{
	Name: "taintflow",
	Doc:  "untrusted input (HTTP, wire frames, raw file bytes) must not reach paths, allocation sizes, or indices unvalidated",
	Run:  runTaintflow,
}

func runTaintflow(pass *Pass) {
	df := pass.Prog.dataflow()
	for _, f := range df.findings[pass.Path] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}
