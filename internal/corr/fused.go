package corr

import (
	"context"
	"fmt"
	"runtime"

	"fcma/internal/blas"
	"fcma/internal/obs/trace"
	"fcma/internal/safe"
	"fcma/internal/tensor"
)

// fusedLocalBytes bounds one worker's local block (voxel block × all M
// epochs × column block), which must stay cache resident between the gemm
// that fills it and the syrk that consumes it. It binds only at large M: at
// the paper's 216 face-scene epochs it gives 384 columns (2.6 MB), the
// fastest of 96…4032 on a 4 MiB L2; the repo benchmark's shapes fit a whole
// brain row (re-measure: `go test -run '^$' -bench FusedBlockSizes .`).
const fusedLocalBytes = 3 << 20

// fusedBlocks derives the fused stage's item shape from the task's. The
// voxel-block height is DefaultVoxBlock, lowered so that a small task still
// has a block per worker. The column block is the widest multiple of
// blas.DefaultSyrkBlock that keeps the local block inside fusedLocalBytes —
// a multiple, because a kernel matrix is summed in DefaultSyrkBlock-column
// slices in ascending order: with every column block starting on a slice
// boundary, the slices are the ones blas.BatchSyrkContext cuts from the
// whole buffer and each kernel matrix equals RunInto + BatchSyrkContext's
// bit for bit.
func (p *Pipeline) fusedBlocks(st *EpochStack, V int) (vb, cb int) {
	vb = p.VoxBlock
	if vb <= 0 {
		workers := p.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		vb = min(DefaultVoxBlock, (V+workers-1)/workers)
	}
	vb = min(vb, V)
	cb = p.ColBlock
	if cb <= 0 {
		cb = max(1, fusedLocalBytes/4/(vb*st.M()*blas.DefaultSyrkBlock)) * blas.DefaultSyrkBlock
	}
	if cb%blas.DefaultSyrkBlock != 0 {
		panic(fmt.Sprintf("corr: fused column block %d is not a multiple of the syrk block %d", cb, blas.DefaultSyrkBlock))
	}
	return vb, cb
}

// RunKernels runs stages 1 and 2 and stage 3's kernel precompute as one
// stage: it returns the M×M kernel matrix K_v = X_v·X_vᵀ of every assigned
// voxel in [v0, v0+V), X_v being the voxel's M normalized correlation
// vectors, without ever holding the (V·M)×N buffer those vectors make up
// (paper §4.3's argument for merging stages 1 and 2, carried one stage
// further: a kernel matrix is N/M times smaller than what it is made from).
// A work item is one voxel block walking the brain in column blocks; a task
// holds V·M²·4 bytes of kernels plus one local block per worker.
//
// The kernels are bit-identical to RunInto followed by
// blas.BatchSyrkContext (see fusedBlocks) at any worker count, whatever
// block a voxel falls in. A cancelled ctx stops the workers at the next
// voxel block and returns ctx.Err(); a panic in a block comes back as a
// *safe.PipelineError naming stage corr/fused and the block's voxel range.
// No work item allocates: a warm run costs the kernels and a constant number
// of objects more, whatever V and N are.
func (p *Pipeline) RunKernels(ctx context.Context, st *EpochStack, v0, V int) ([]tensor.Matrix, error) {
	if err := CheckRange(v0, V, st.N); err != nil {
		return nil, fmt.Errorf("corr: %w", err)
	}
	M := st.M()
	kernels := make([]tensor.Matrix, V)
	data := make([]float32, V*M*M)
	for v := range kernels {
		kernels[v] = tensor.Matrix{Rows: M, Cols: M, Stride: M, Data: data[v*M*M : (v+1)*M*M : (v+1)*M*M]}
	}
	vb, cb := p.fusedBlocks(st, V)
	g := p.gemm()
	inst := p.instruments(true)
	timer := inst.fused.Start()
	defer timer.Stop()
	sctx, span := trace.StartSpan(ctx, "corr/fused")
	span.SetInt("v0", v0)
	span.SetInt("voxels", V)
	defer span.End()
	err := safe.ParallelDynamic(sctx, safe.Span{Stage: "corr/fused", Base: v0}, (V+vb-1)/vb, p.Workers, func(ictx context.Context, item int) (err error) {
		vs := item * vb
		vh := min(vb, V-vs)
		_, bsp := trace.StartSpan(ictx, "corr/fused_block")
		bsp.SetInt("v0", v0+vs)
		bsp.SetInt("voxels", vh)
		defer func() {
			// Contained here, under the block's own voxel range: the
			// driver would name one voxel, at the item's index.
			if pe := safe.Recovered("corr/fused", v0+vs, vh, recover()); pe != nil {
				err = pe
			}
			bsp.End()
		}()
		p.fusedItem(st, kernels[vs:vs+vh], g, inst, v0+vs, cb)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return kernels, nil
}

// fusedItem computes the kernel matrices (zeroed on entry) of the voxel
// block [v0, v0+len(kernels)), one cb-wide column block at a time in
// ascending order.
func (p *Pipeline) fusedItem(st *EpochStack, kernels []tensor.Matrix, g blas.Sgemm, inst *pipelineInst, v0, cb int) {
	M, N, E, T := st.M(), st.N, st.E, st.T
	vh := len(kernels)
	sc := corrPool.Get().(*corrScratch)
	sc.A.Reuse(vh, T)
	for j0 := 0; j0 < N; j0 += cb {
		w := min(cb, N-j0)
		// local holds vh×M rows of width w, grouped by voxel: row v·M+e is
		// voxel v's epoch-e correlations with brain voxels [j0, j0+w).
		sc.local.Reuse(vh*M, w)
		for e := 0; e < M; e++ {
			st.GatherAssigned(e, v0, vh, &sc.A)
			sc.bview = tensor.Matrix{Rows: T, Cols: w, Stride: st.Norm[e].Stride, Data: st.Norm[e].Data[j0:]}
			// Interleave this epoch's vh×w product into every M-th row.
			sc.cview = tensor.Matrix{Rows: vh, Cols: w, Stride: M * w, Data: sc.local.Data[e*w:]}
			g.Gemm(&sc.cview, &sc.A, &sc.bview)
			inst.gemmCalls.Inc()
		}
		for v := range kernels {
			rows := sc.local.Data[v*M*w : (v+1)*M*w]
			// One normalization population is one subject's E epochs.
			for s := 0; s < st.Subjects; s++ {
				sc.norm.FisherThenZScoreStrided(rows[s*E*w:], E, w, w)
				inst.normBlocks.Inc()
			}
			sc.cview = tensor.Matrix{Rows: M, Cols: w, Stride: w, Data: rows}
			sc.syrk.Add(&kernels[v], &sc.cview, 0, w, blas.DefaultSyrkBlock)
		}
	}
	for v := range kernels {
		sc.syrk.Finish(&kernels[v])
	}
	corrPool.Put(sc)
}
