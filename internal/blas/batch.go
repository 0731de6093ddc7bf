package blas

import (
	"context"
	"fmt"
	"sync"

	"fcma/internal/obs/trace"
	"fcma/internal/safe"
	"fcma/internal/tensor"
)

// BatchSyrkContext computes Cs[i] = As[i]·As[i]ᵀ for a batch of independent
// tall-skinny products — the exact workflow of the paper's Fig. 7. One
// voxel's product alone cannot saturate the machine ("the number of
// independent, concurrently executed matrix multiplications is limited...
// which compels us to split the problems across multiple threads and use
// OpenMP locks to control access to the C matrices"), so work items are
// (matrix, long-dimension block) pairs shared across one worker pool, and
// each worker merges its thread-local partial result into the owning C
// under that matrix's lock.
//
// A cancelled ctx stops the worker pool at the next (matrix, block) work
// item — the checkpoint interval — and returns ctx.Err(); a contained
// panic returns as a *safe.PipelineError. Each item records its span on
// its pool goroutine's timeline lane.
func BatchSyrkContext(ctx context.Context, Cs, As []*tensor.Matrix, block, workers int) error {
	if len(Cs) != len(As) {
		return fmt.Errorf("blas: batch of %d C matrices for %d A matrices", len(Cs), len(As))
	}
	if block <= 0 {
		block = DefaultSyrkBlock
	}
	type item struct {
		mat, j0, w int
	}
	var items []item
	for i, A := range As {
		if Cs[i].Rows != A.Rows || Cs[i].Cols != A.Rows {
			return fmt.Errorf("blas: batch item %d shape mismatch C[%dx%d] = A[%dx%d]·Aᵀ",
				i, Cs[i].Rows, Cs[i].Cols, A.Rows, A.Cols)
		}
		Cs[i].Zero()
		for j0 := 0; j0 < A.Cols; j0 += block {
			w := A.Cols - j0
			if w > block {
				w = block
			}
			items = append(items, item{mat: i, j0: j0, w: w})
		}
	}
	locks := make([]sync.Mutex, len(Cs))
	err := safe.ParallelDynamic(ctx, safe.Span{Stage: "blas/kernel"}, len(items), workers, func(ictx context.Context, n int) error {
		obsBatchSyrkItems.Inc()
		it := items[n]
		_, bsp := trace.StartSpan(ictx, "blas/syrk_block")
		bsp.SetInt("mat", it.mat)
		bsp.SetInt("j0", it.j0)
		bsp.SetInt("w", it.w)
		defer bsp.End()
		A := As[it.mat]
		m := A.Rows
		sc := syrkPool.Get().(*syrkScratch)
		sc.local.Reuse(m, m)
		sc.local.Zero()
		sc.tbuf = tensor.PackTransposed(sc.tbuf, A, 0, it.j0, m, it.w)
		syrkBlockKernel(&sc.local, sc.tbuf, m, it.w)
		locks[it.mat].Lock()
		C := Cs[it.mat]
		for i := 0; i < m; i++ {
			dst, src := C.Row(i), sc.local.Row(i)
			for j := 0; j <= i; j++ {
				dst[j] += src[j]
			}
		}
		locks[it.mat].Unlock()
		syrkPool.Put(sc)
		return nil
	})
	if err != nil {
		return err
	}
	// Mirror the lower triangles.
	for _, C := range Cs {
		mirrorLower(C)
	}
	return nil
}
