package blas

import (
	"context"
	"runtime"

	"fcma/internal/safe"
)

// parallelFor runs fn(start, end) over [0, n) split into contiguous chunks
// of ceil(n/workers) indices — the static partitioning the paper's kernels
// use within a coprocessor — one chunk per work item of the shared driver.
// workers <= 0 means GOMAXPROCS. Every caller's chunks write disjoint
// outputs (gemm column blocks, row panels), so no result depends on the
// worker count or on which goroutine runs a chunk.
//
// Chunks run with panic containment: a panic inside fn is recovered,
// joined with the rest of the pool, and re-thrown on the calling goroutine
// as a *safe.PipelineError naming the chunk — so a faulting kernel chunk
// can never kill the process from an anonymous goroutine, and the layers
// above (which do have error returns) convert it to an ordinary error.
func parallelFor(n, workers int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	err := safe.ParallelDynamic(context.Background(), safe.Span{Stage: "blas/kernel"}, chunks, workers,
		func(_ context.Context, c int) error {
			fn(c*chunk, min((c+1)*chunk, n))
			return nil
		})
	if err != nil {
		panic(err)
	}
}
