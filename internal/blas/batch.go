package blas

import (
	"context"
	"fmt"

	"fcma/internal/obs/trace"
	"fcma/internal/safe"
	"fcma/internal/tensor"
)

// BatchSyrkContext computes Cs[i] = As[i]·As[i]ᵀ for a batch of independent
// tall-skinny products — the paper's Fig. 7 workload. A work item is one
// whole matrix: its block-wide slices of the long dimension are staged
// and accumulated in ascending order straight into Cs[i], exactly as
// TallSkinny.Syrk does, so no two goroutines ever share an output, nothing
// is locked or merged, and every Cs[i] is bit-identical to
// TallSkinny{Workers: 1, SyrkBlock: block}.Syrk at any worker count. (The
// paper splits one matrix across threads and merges under OpenMP locks
// because 240 threads outnumber a task's matrices; a batch here has far
// more matrices than workers, and a merge in lock order would make the
// last bits depend on scheduling.)
//
// Shapes are validated before any work starts. A cancelled ctx stops the
// worker pool at the next matrix — the checkpoint interval — and returns
// ctx.Err(); a contained panic returns as a *safe.PipelineError. Each
// block records its span on its pool goroutine's timeline lane.
func BatchSyrkContext(ctx context.Context, Cs, As []*tensor.Matrix, block, workers int) error {
	if len(Cs) != len(As) {
		return fmt.Errorf("blas: batch of %d C matrices for %d A matrices", len(Cs), len(As))
	}
	if block <= 0 {
		block = DefaultSyrkBlock
	}
	for i, A := range As {
		if Cs[i].Rows != A.Rows || Cs[i].Cols != A.Rows {
			return fmt.Errorf("blas: batch item %d shape mismatch C[%dx%d] = A[%dx%d]·Aᵀ",
				i, Cs[i].Rows, Cs[i].Cols, A.Rows, A.Cols)
		}
	}
	return safe.ParallelDynamic(ctx, safe.Span{Stage: "blas/kernel"}, len(As), workers, func(ictx context.Context, mat int) error {
		C, A := Cs[mat], As[mat]
		C.Zero()
		sc := syrkPool.Get().(*syrkScratch)
		for j0 := 0; j0 < A.Cols; j0 += block {
			w := min(block, A.Cols-j0)
			obsBatchSyrkItems.Inc()
			_, bsp := trace.StartSpan(ictx, "blas/syrk_block")
			bsp.SetInt("mat", mat)
			bsp.SetInt("j0", j0)
			bsp.SetInt("w", w)
			sc.addBlock(C, A, j0, w)
			bsp.End()
		}
		syrkPool.Put(sc)
		mirrorLower(C)
		return nil
	})
}
