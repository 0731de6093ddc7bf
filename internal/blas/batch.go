package blas

import (
	"context"
	"fmt"

	"fcma/internal/safe"
	"fcma/internal/tensor"
)

// BatchSyrkContext computes Cs[i] = As[i]·As[i]ᵀ for a batch of independent
// tall-skinny products — the paper's Fig. 7 workload, as a stage of its
// own: the task pipeline accumulates its kernel matrices inside the fused
// correlation stage (corr.Pipeline.RunKernels) and never holds the As;
// what calls this is whoever has them in memory (the repo benchmark's
// mirror task, tests). A work item is one whole matrix, built by one
// SyrkAcc exactly as TallSkinny.Syrk builds it, so no two goroutines ever
// share an output, nothing is locked or merged, and every Cs[i] is
// bit-identical to TallSkinny{Workers: 1, SyrkBlock: block}.Syrk at any
// worker count. (The paper splits one matrix across threads and merges
// under OpenMP locks because 240 threads outnumber a task's matrices; a
// batch here has far more matrices than workers, and a merge in lock order
// would make the last bits depend on scheduling.)
//
// Shapes are validated before any work starts. A cancelled ctx stops the
// worker pool at the next matrix — the checkpoint interval — and returns
// ctx.Err(); a contained panic returns as a *safe.PipelineError.
func BatchSyrkContext(ctx context.Context, Cs, As []*tensor.Matrix, block, workers int) error {
	if len(Cs) != len(As) {
		return fmt.Errorf("blas: batch of %d C matrices for %d A matrices", len(Cs), len(As))
	}
	for i, A := range As {
		if Cs[i].Rows != A.Rows || Cs[i].Cols != A.Rows {
			return fmt.Errorf("blas: batch item %d shape mismatch C[%dx%d] = A[%dx%d]·Aᵀ",
				i, Cs[i].Rows, Cs[i].Cols, A.Rows, A.Cols)
		}
	}
	return safe.ParallelDynamic(ctx, safe.Span{Stage: "blas/kernel"}, len(As), workers, func(_ context.Context, mat int) error {
		C, A := Cs[mat], As[mat]
		C.Zero()
		acc := syrkPool.Get().(*SyrkAcc)
		acc.Add(C, A, 0, A.Cols, block)
		acc.Finish(C)
		syrkPool.Put(acc)
		return nil
	})
}
