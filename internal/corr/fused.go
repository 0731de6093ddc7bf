package corr

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"fcma/internal/blas"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
	"fcma/internal/safe"
	"fcma/internal/tensor"
)

// fusedLocalBytes bounds one worker's local block (voxel block × all M
// epochs × column block), which must stay cache resident between the gemm
// that fills it and the syrk that consumes it. It binds only at large M: at
// the paper's 216 face-scene epochs it gives 384 columns (2.6 MB), the
// fastest of 96…4032 on a 2 MiB-per-core L2 (past it: the block lives in
// L3); the repo benchmark's shapes fit a whole brain row (re-measure:
// `go test -run '^$' -bench FusedBlockSizes .`).
const fusedLocalBytes = 3 << 20

// fusedBlocks derives the row walk's item shape from the task's. The
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
		vb = min(DefaultVoxBlock, (V+p.workers()-1)/p.workers())
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
// A whole-brain task that mirrorSlices takes runs the mirrored walk
// (mirroredItem), any other the row walk (fusedItem); a task holds V·M²·4
// bytes of kernels plus one local block per worker.
//
// The kernels are bit-identical to RunInto followed by
// blas.BatchSyrkContext (see fusedBlocks and mirroredItem) at any worker
// count, on either walk, whatever block a voxel falls in. A cancelled ctx
// stops the workers at the next work item and returns ctx.Err(); a panic
// in an item comes back as a *safe.PipelineError naming stage corr/fused
// and the item's voxel block. No work item allocates: a warm run costs the
// kernels and a constant number of objects more, whatever V and N are.
func (p *Pipeline) RunKernels(ctx context.Context, st *EpochStack, v0, V int) ([]tensor.Matrix, error) {
	if err := CheckRange(v0, V, st.N); err != nil {
		return nil, fmt.Errorf("corr: %w", err)
	}
	return p.runKernels(ctx, st, v0, V, p.mirrorSlices(st, v0, V))
}

// runKernels is RunKernels on the row walk (k = 0) or the mirrored walk,
// whose items are the tiles of block row I and slices [J0, J0+k), J0 = I,
// I+k, … < S, row after row: a grid of S rows of ⌈S/k⌉, empty past S.
func (p *Pipeline) runKernels(ctx context.Context, st *EpochStack, v0, V, k int) ([]tensor.Matrix, error) {
	const b = blas.DefaultSyrkBlock
	M := st.M()
	kernels := make([]tensor.Matrix, V)
	data := make([]float32, V*M*M)
	for v := range kernels {
		kernels[v] = tensor.Matrix{Rows: M, Cols: M, Stride: M, Data: data[v*M*M : (v+1)*M*M : (v+1)*M*M]}
	}
	vb, cb := p.fusedBlocks(st, V)
	items, S, chunks := (V+vb-1)/vb, (V+b-1)/b, 1
	var t *turns
	if k > 0 {
		chunks = (S + k - 1) / k
		vb, items, t = b, S*chunks, &turns{next: make([]atomic.Int32, V)}
	}
	g := p.gemm()
	gemms, norms := p.counters()
	sctx, iv := p.obsReg().Begin(ctx, "corr/fused")
	iv.Span.SetInt("v0", v0)
	iv.Span.SetInt("voxels", V)
	defer iv.End()
	if t != nil {
		defer context.AfterFunc(sctx, t.stop)()
	}
	err := safe.ParallelDynamic(sctx, safe.Span{Stage: "corr/fused", Base: v0}, items, p.Workers, func(ictx context.Context, item int) (err error) {
		vs, J0 := item/chunks*vb, item/chunks+item%chunks*k
		if t != nil && J0 >= S {
			return nil
		}
		vh := min(vb, V-vs)
		_, bsp := trace.StartSpan(ictx, "corr/fused_block")
		bsp.SetInt("v0", v0+vs)
		bsp.SetInt("voxels", vh)
		defer func() {
			// Contained under the block's own voxel range (the driver would
			// name one voxel); a failed tile ends its terms' waits.
			if pe := safe.Recovered("corr/fused", v0+vs, vh, recover()); pe != nil {
				t.stop()
				err = pe
			}
			bsp.End()
		}()
		if t == nil {
			p.fusedItem(st, kernels[vs:vs+vh], g, gemms, norms, v0+vs, cb)
		} else {
			p.mirroredItem(st, kernels, g, gemms, norms, t, vs/b, J0, min(J0+k, S))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return kernels, nil
}

// workers is the worker count the stages run at: Workers, or GOMAXPROCS.
func (p *Pipeline) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// fusedItem computes the kernel matrices (zeroed on entry) of the voxel
// block [v0, v0+len(kernels)), one cb-wide column block at a time in
// ascending order.
func (p *Pipeline) fusedItem(st *EpochStack, kernels []tensor.Matrix, g blas.Sgemm, gemms, norms *obs.Counter, v0, cb int) {
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
			gemms.Inc()
		}
		for v := range kernels {
			rows := sc.local.Data[v*M*w : (v+1)*M*w]
			// One normalization population is one subject's E epochs.
			for s := 0; s < st.Subjects; s++ {
				sc.norm.FisherThenZScoreStrided(rows[s*E*w:], E, w, w)
				norms.Inc()
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

// mirrorSlices is the mirrored walk's take rule: tileSlices(M) for a
// whole-brain task whose first block row has more tiles than there are
// workers (with fewer, workers wait on its terms: DESIGN §18), else 0.
func (p *Pipeline) mirrorSlices(st *EpochStack, v0, V int) int {
	k := tileSlices(st.M())
	if v0 != 0 || V != st.N || (V+blas.DefaultSyrkBlock-1)/blas.DefaultSyrkBlock <= k*p.workers() {
		return 0
	}
	return k
}

// tileSlices is the mirrored walk's tile width: the most syrk slices whose
// tile fits half of fusedLocalBytes, being written once and read twice.
func tileSlices(M int) int {
	const b = blas.DefaultSyrkBlock
	return fusedLocalBytes / 2 / (b * new(blas.SyrkAcc).PanelRows(M) * b * 4)
}

// mirroredItem computes the tile of block row I and slices [J0, J1), laid
// out as fusedItem's local block with PanelRows(M) rows per voxel, and adds
// it to the kernels. The normalized correlations are symmetric to the bit
// (the gemm's products commute, the normalization is per column), so tile
// column c of slice J > I is K_c's staged slice-I term, which
// blas.SyrkAcc.AddColumns adds with the row walk's bits. A term waits for
// its voxel's turn, as the bits depend on the terms' order: every wait is
// on an item listed earlier, and safe.ParallelDynamic claims items in index
// order, so the earliest unfinished item never waits. Once the turns stop,
// the item returns with its terms unfinished.
func (p *Pipeline) mirroredItem(st *EpochStack, kernels []tensor.Matrix, g blas.Sgemm, gemms, norms *obs.Counter, t *turns, I, J0, J1 int) {
	const b = blas.DefaultSyrkBlock
	M, N, E, T := st.M(), st.N, st.E, st.T
	vs, vh := I*b, min(b, N-I*b)
	c0, w := J0*b, min(J1*b, N)-J0*b
	sc := corrPool.Get().(*corrScratch)
	defer corrPool.Put(sc)
	mp := sc.syrk.PanelRows(M)
	sc.A.Reuse(vh, T)
	sc.local.Reuse(vh*mp, w)
	tile := sc.local.Data
	for e := 0; e < M; e++ {
		st.GatherAssigned(e, vs, vh, &sc.A)
		sc.bview = tensor.Matrix{Rows: T, Cols: w, Stride: st.Norm[e].Stride, Data: st.Norm[e].Data[c0:]}
		sc.cview = tensor.Matrix{Rows: vh, Cols: w, Stride: mp * w, Data: tile[e*w:]}
		g.Gemm(&sc.cview, &sc.A, &sc.bview)
		gemms.Inc()
	}
	for v := 0; v < vh; v++ {
		rows := tile[v*mp*w : (v+1)*mp*w]
		clear(rows[M*w:])
		for s := 0; s < st.Subjects; s++ {
			sc.norm.FisherThenZScoreStrided(rows[s*E*w:], E, w, w)
			norms.Inc()
		}
	}
	for x := vs; x < vs+vh; x++ {
		if !t.wait(x, J0) {
			return
		}
		sc.cview = tensor.Matrix{Rows: M, Cols: w, Stride: w, Data: tile[(x-vs)*mp*w:]}
		sc.syrk.Add(&kernels[x], &sc.cview, 0, w, b)
		if J1*b >= N {
			sc.syrk.Finish(&kernels[x])
		}
		t.next[x].Store(int32(J1))
	}
	// Mirror terms, eight columns (one staging pass) at a time.
	sc.cview = tensor.Matrix{Rows: vh * mp, Cols: w, Stride: w, Data: tile}
	for c := max(J0, I+1) * b; c < c0+w; c += 8 {
		cn := min(c+8, c0+w)
		for x := c; x < cn; x++ {
			if !t.wait(x, I) {
				return
			}
		}
		sc.syrk.AddColumns(kernels[c:cn], &sc.cview, c-c0)
		for x := c; x < cn; x++ {
			t.next[x].Store(int32(I + 1))
		}
	}
}

// turns orders the mirrored walk's kernel terms: next[x] is the syrk slice
// whose term voxel x's kernel takes next.
type turns struct {
	next    []atomic.Int32
	stopped atomic.Bool
}

// wait yields until voxel x's next term is slice s and reports true, or
// false once the turns stop. The term before is in a running item.
func (t *turns) wait(x, s int) bool {
	for t.next[x].Load() != int32(s) {
		if t.stopped.Load() {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// stop ends every wait, present and future; a nil t (the row walk) has none.
func (t *turns) stop() {
	if t != nil {
		t.stopped.Store(true)
	}
}
