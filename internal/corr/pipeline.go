package corr

import (
	"context"
	"sync"

	"fcma/internal/blas"
	"fcma/internal/norm"
	"fcma/internal/obs"
	"fcma/internal/safe"
	"fcma/internal/tensor"
)

// Pipeline runs stages 1 and 2 of FCMA for a worker task: correlate the
// assigned voxels against the whole brain over every epoch, Fisher-
// transform and z-score within subject. RunKernels (fused.go), the entry a
// task runs, reduces each cache-resident block of the result straight to
// the voxels' kernel matrices; RunInto and RunContext emit the whole
// voxel-grouped interleaved buffer of Fig. 4 (voxel v's M correlation
// vectors are rows [v·M, (v+1)·M) of the output), merged or separated —
// the paper's Table 7 pair, and what the repo benchmark's mirror task and
// internal/baseline call.
type Pipeline struct {
	// Gemm is the matrix kernel for the correlation products; nil selects
	// the paper's tall-skinny kernel.
	Gemm blas.Sgemm
	// Workers bounds goroutine parallelism; 0 means GOMAXPROCS. Workers=1
	// runs every stage on the caller's goroutine.
	Workers int
	// Merged selects RunInto's stage-1+2 variant (paper §4.3): each
	// correlation block is normalized while cache resident instead of in
	// a second pass over the full buffer. RunKernels does not read it.
	Merged bool
	// ColBlock is the column-block width of the merged variant (0 means
	// blas.DefaultColBlock) and of RunKernels' row walk, where 0 means the
	// width derived from the task's shape and any other value must be a
	// multiple of blas.DefaultSyrkBlock. Only tests and block-size
	// benchmarks set it.
	ColBlock int
	// VoxBlock is the number of assigned voxels processed together per
	// block (the B voxels of Fig. 5) by RunInto and RunKernels' row walk;
	// 0 means DefaultVoxBlock, which RunKernels lowers for a task too small
	// to give every worker a block. Larger blocks amortize the stream over
	// the wide operand; smaller blocks keep the working set cache resident.
	VoxBlock int
	// Obs receives stage timings and block counters (see DESIGN.md §10):
	// stage_corr_*_seconds histograms plus corr_gemm_calls_total and
	// corr_norm_blocks_total. Nil records to obs.Default().
	Obs *obs.Registry
}

// DefaultVoxBlock is the default voxel-block height.
const DefaultVoxBlock = 8

// obsReg resolves the metrics registry (nil field → process default).
func (p *Pipeline) obsReg() *obs.Registry {
	if p.Obs == nil {
		return obs.Default()
	}
	return p.Obs
}

// counters resolves the block counters: gemm calls and normalization
// blocks.
func (p *Pipeline) counters() (gemms, norms *obs.Counter) {
	reg := p.obsReg()
	return reg.Counter("corr_gemm_calls_total"), reg.Counter("corr_norm_blocks_total")
}

// defaultGemm is the boxed default kernel, built once so resolving it per
// run does not re-box the TallSkinny value into the interface.
var defaultGemm blas.Sgemm = blas.TallSkinny{Workers: 1}

func (p *Pipeline) gemm() blas.Sgemm {
	if p.Gemm == nil {
		// Worker parallelism is at the voxel/block level here, so the
		// kernel itself runs single-threaded.
		return defaultGemm
	}
	return p.Gemm
}

// corrScratch is the pooled per-work-item state shared by every pipeline
// stage: the gather block, the merged and fused local block, manual view
// headers (a .View() call would allocate), the normalization buffers and
// the fused stage's syrk staging panel. Pooled as a pointer so Get/Put
// never box.
type corrScratch struct {
	A     tensor.Matrix
	local tensor.Matrix
	bview tensor.Matrix
	cview tensor.Matrix
	norm  norm.Scratch
	syrk  blas.SyrkAcc
}

var corrPool = sync.Pool{New: func() any { return new(corrScratch) }}

// RunContext computes the normalized correlation buffer for assigned
// voxels [v0, v0+V): a (V·M)×N matrix in voxel-grouped interleaved layout.
// A cancelled ctx stops all worker goroutines at the next work item (one
// epoch, one voxel, or one voxel-block × column-block item in the merged
// variant) and returns ctx.Err(); a panic in any work item comes back as
// a *safe.PipelineError.
func (p *Pipeline) RunContext(ctx context.Context, st *EpochStack, v0, V int) (*tensor.Matrix, error) {
	buf := tensor.NewMatrix(V*st.M(), st.N)
	if err := p.RunInto(ctx, st, v0, V, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// RunInto is RunContext writing into a caller-provided buffer. No work
// item allocates: every scratch block comes from a pool and the item
// bodies allocate nothing, so a warm run costs one heap object per stage
// pass (the item closure handed to the driver) whatever V is; pinned by
// alloc_test.go.
//
// buf must be a compact (V·M())×N matrix; contents are overwritten.
func (p *Pipeline) RunInto(ctx context.Context, st *EpochStack, v0, V int, buf *tensor.Matrix) error {
	if buf.Rows != V*st.M() || buf.Cols != st.N || buf.Stride != buf.Cols {
		panic("corr: RunInto buffer must be a compact (V*M)xN matrix")
	}
	if p.Merged {
		return p.runMerged(ctx, st, v0, V, buf)
	}
	if err := p.computeCorrelations(ctx, st, v0, V, buf); err != nil {
		return err
	}
	return p.normalizeSeparated(ctx, st, buf, V)
}

// computeCorrelations is stage 1 alone: raw Pearson correlations in
// interleaved layout, one work item per epoch.
func (p *Pipeline) computeCorrelations(ctx context.Context, st *EpochStack, v0, V int, buf *tensor.Matrix) error {
	g := p.gemm()
	gemms, _ := p.counters()
	sctx, iv := p.obsReg().Begin(ctx, "corr/correlate")
	iv.Span.SetInt("v0", v0)
	iv.Span.SetInt("voxels", V)
	iv.Span.SetInt("epochs", st.M())
	defer iv.End()
	return safe.ParallelDynamic(sctx, safe.Span{Stage: "corr/correlate"}, st.M(), p.Workers, func(_ context.Context, e int) error {
		p.correlateEpoch(st, buf, g, gemms, v0, V, e)
		return nil
	})
}

// correlateEpoch computes epoch e's V×N correlation strip into buf.
func (p *Pipeline) correlateEpoch(st *EpochStack, buf *tensor.Matrix, g blas.Sgemm, gemms *obs.Counter, v0, V, e int) {
	sc := corrPool.Get().(*corrScratch)
	sc.A.Reuse(V, st.T)
	st.GatherAssigned(e, v0, V, &sc.A)
	// Interleave epoch e's V×N product into every M-th row starting at
	// row e — the cblas ldc trick from §3.2.
	sc.cview = tensor.Matrix{Rows: V, Cols: st.N, Stride: st.M() * buf.Stride, Data: buf.Data[e*buf.Stride:]}
	g.Gemm(&sc.cview, &sc.A, st.Norm[e])
	gemms.Inc()
	corrPool.Put(sc)
}

// normalizeSeparated is the unfused stage 2: a second full pass over the
// correlation buffer applying Fisher + within-subject z-scoring.
func (p *Pipeline) normalizeSeparated(ctx context.Context, st *EpochStack, buf *tensor.Matrix, V int) error {
	_, norms := p.counters()
	sctx, iv := p.obsReg().Begin(ctx, "corr/normalize")
	iv.Span.SetInt("voxels", V)
	defer iv.End()
	return safe.ParallelDynamic(sctx, safe.Span{Stage: "corr/normalize"}, V, p.Workers, func(_ context.Context, v int) error {
		p.normalizeVoxel(st, buf, norms, v)
		return nil
	})
}

// normalizeVoxel applies Fisher + within-subject z-scoring to voxel v's
// M rows of the separated buffer.
func (p *Pipeline) normalizeVoxel(st *EpochStack, buf *tensor.Matrix, norms *obs.Counter, v int) {
	M, N, E := st.M(), st.N, st.E
	sc := corrPool.Get().(*corrScratch)
	for s := 0; s < st.Subjects; s++ {
		block := buf.Data[(v*M+s*E)*buf.Stride : (v*M+s*E+E-1)*buf.Stride+N]
		sc.norm.FisherThenZScoreStrided(block, E, N, buf.Stride)
		norms.Inc()
	}
	corrPool.Put(sc)
}

// runMerged fuses stages 1 and 2: correlations for a block of voxels are
// computed into a small per-worker scratch block (voxel block × subject
// epochs × column block), Fisher-transformed and z-scored while still
// cache resident, then written to the output buffer exactly once. The
// wide operand is streamed once per voxel *block*, not per voxel (Fig. 5's
// B voxels per thread).
func (p *Pipeline) runMerged(ctx context.Context, st *EpochStack, v0, V int, buf *tensor.Matrix) error {
	N := st.N
	cb := p.ColBlock
	if cb <= 0 {
		cb = blas.DefaultColBlock
	}
	vb := p.VoxBlock
	if vb <= 0 {
		vb = DefaultVoxBlock
	}
	if vb > V {
		vb = V
	}
	g := p.gemm()
	gemms, norms := p.counters()
	sctx, iv := p.obsReg().Begin(ctx, "corr/merged")
	iv.Span.SetInt("v0", v0)
	iv.Span.SetInt("voxels", V)
	defer iv.End()
	nBlocks := (N + cb - 1) / cb
	vBlocks := (V + vb - 1) / vb
	// Work items are (voxel block, column block) pairs; each normalization
	// population (one subject's E epochs of one voxel) lives entirely
	// inside one item, so items are independent.
	return safe.ParallelDynamic(sctx, safe.Span{Stage: "corr/merged"}, vBlocks*nBlocks, p.Workers, func(_ context.Context, item int) error {
		p.mergedItem(st, buf, g, gemms, norms, v0, V, vb, cb, nBlocks, item)
		return nil
	})
}

// mergedItem computes one (voxel block × column block) unit of the merged
// pipeline into buf.
func (p *Pipeline) mergedItem(st *EpochStack, buf *tensor.Matrix, g blas.Sgemm, gemms, norms *obs.Counter, v0, V, vb, cb, nBlocks, item int) {
	M, N, E, T := st.M(), st.N, st.E, st.T
	sc := corrPool.Get().(*corrScratch)
	vblk := item / nBlocks
	b := item % nBlocks
	vs := vblk * vb
	vh := min(vb, V-vs)
	j0 := b * cb
	w := min(cb, N-j0)
	// local holds vh×E rows of width w, grouped by voxel: row v·E+e is
	// voxel v's epoch-e correlations within this subject.
	sc.local.Reuse(vh*E, w)
	sc.A.Reuse(vh, T)
	for s := 0; s < st.Subjects; s++ {
		for ei := 0; ei < E; ei++ {
			e := s*E + ei
			st.GatherAssigned(e, v0+vs, vh, &sc.A)
			sc.bview = tensor.Matrix{Rows: T, Cols: w, Stride: st.Norm[e].Stride, Data: st.Norm[e].Data[j0:]}
			// Interleave this epoch's vh×w product into every E-th row
			// of the scratch block.
			sc.cview = tensor.Matrix{Rows: vh, Cols: w, Stride: E * sc.local.Stride, Data: sc.local.Data[ei*sc.local.Stride:]}
			g.Gemm(&sc.cview, &sc.A, &sc.bview)
			gemms.Inc()
		}
		// Normalize each voxel's E×w sub-block in cache, straight into
		// its E rows of the output.
		for v := 0; v < vh; v++ {
			dst := buf.Data[((vs+v)*M+s*E)*buf.Stride+j0:]
			sc.norm.FisherThenZScoreInto(dst, buf.Stride, sc.local.Data[v*E*sc.local.Stride:], E, w, sc.local.Stride)
			norms.Inc()
		}
	}
	corrPool.Put(sc)
}
