package blas

import (
	"fmt"
	"sync"

	"fcma/internal/tensor"
)

// DefaultColBlock is the default number of columns of the wide operand
// processed per block. 4096 float32 columns keep a 12-row B block plus the
// accumulator strip inside a 512KB L2 slice, the paper's design point.
const DefaultColBlock = 4096

// DefaultSyrkBlock is the default long-dimension block for the optimized
// syrk, matching the paper's 96-row staging blocks (an integral multiple of
// the 16-lane VPU width).
const DefaultSyrkBlock = 96

// TallSkinny implements the paper's optimized kernels for matrices with one
// very small dimension (optimization ideas #1 and #3, §4.2 and §4.4).
//
// Gemm targets C[m×n] = A[m×k]·B[k×n] with tiny k (an epoch is ~12 time
// points): the wide dimension is partitioned into L2-sized column blocks;
// within a block output rows are accumulated two at a time in contiguous
// register strips with the k loop pipelined two B rows deep, so each B
// element is loaded once per two assigned rows and no packing buffers are
// written.
//
// Syrk targets C[m×m] = A[m×n]·Aᵀ with huge n (Fig. 7): it marches down
// the long dimension in SyrkBlock-sized column blocks, stages each block in
// a transposed buffer (A_localᵀ) so the rank-1 updates are unit-stride, and
// accumulates through hand-unrolled 4×4 register blocks.
//
// Syrk always, and Gemm when Workers == 1 or the problem has a single
// block, run on the calling goroutine — no goroutines, no closures, no
// heap traffic — so a warm steady-state call allocates nothing (pinned by
// alloc_test.go).
type TallSkinny struct {
	// Workers bounds the number of goroutines Gemm spreads its column
	// blocks over; 0 means GOMAXPROCS.
	Workers int
	// ColBlock is the column-block width for Gemm; 0 means DefaultColBlock.
	ColBlock int
	// SyrkBlock is the long-dimension block for Syrk; 0 means
	// DefaultSyrkBlock (96, the paper's choice).
	SyrkBlock int
}

func (t TallSkinny) colBlock() int {
	if t.ColBlock <= 0 {
		return DefaultColBlock
	}
	return t.ColBlock
}

func (t TallSkinny) syrkBlock() int {
	if t.SyrkBlock <= 0 {
		return DefaultSyrkBlock
	}
	return t.SyrkBlock
}

// Gemm computes C = A·B optimized for tiny inner dimension.
func (t TallSkinny) Gemm(C, A, B *tensor.Matrix) {
	checkGemmShapes(C, A, B)
	m, n := A.Rows, B.Cols
	if m == 0 || n == 0 {
		return
	}
	nb := t.colBlock()
	nBlocks := (n + nb - 1) / nb
	if t.Workers == 1 || nBlocks == 1 {
		// Serial fast path: skip the parallelFor goroutine/closure
		// machinery entirely. Every per-epoch gemm inside corr.Pipeline
		// runs single-threaded (the pipeline parallelizes across epochs),
		// so this is the hot configuration.
		obsGemmBlocks.Add(uint64(nBlocks))
		gemmBlocks(C, A, B, 0, nBlocks, nb)
		return
	}
	parallelFor(nBlocks, t.Workers, func(b0, b1 int) {
		obsGemmBlocks.Add(uint64(b1 - b0))
		gemmBlocks(C, A, B, b0, b1, nb)
	})
}

// gemmBlocks computes column blocks [b0, b1) of C = A·B, walking output
// rows two at a time through the register-blocked strip kernel.
//
//lint:hotpath stage-1 gemm inner driver, called once per column block per worker
func gemmBlocks(C, A, B *tensor.Matrix, b0, b1, nb int) {
	m, k, n := A.Rows, A.Cols, B.Cols
	for b := b0; b < b1; b++ {
		j0 := b * nb
		w := min(nb, n-j0)
		i := 0
		for ; i+2 <= m; i += 2 {
			c0 := C.Data[i*C.Stride+j0 : i*C.Stride+j0+w]
			c1 := C.Data[(i+1)*C.Stride+j0 : (i+1)*C.Stride+j0+w]
			gemmStrip2(c0, c1, A.Row(i), A.Row(i+1), B, j0, w, k)
		}
		if i < m {
			ci := C.Data[i*C.Stride+j0 : i*C.Stride+j0+w]
			gemmStrip(ci, A.Row(i), B, j0, w, k)
		}
	}
}

// gemmStrip2 computes two output strips: with AVX2 the leading columns, 8
// at a time, in gemmStrip2AVX2 and the last w%8 in gemmRowStrip2;
// otherwise all of them in gemmRowStrip2. Every element gets the same
// operations in the same order either way, so where the split falls does
// not show in the result. The reslices bounds-check everything the
// assembly touches.
//
//lint:hotpath gemm two-row strip dispatch, once per row pair per column block
func gemmStrip2(c0, c1, a0, a1 []float32, B *tensor.Matrix, j0, w, k int) {
	if w8 := w &^ 7; useAVX2 && k > 0 && w8 > 0 {
		c0v, c1v, a0v, a1v := c0[:w8], c1[:w8], a0[:k], a1[:k]
		bv := B.Data[j0 : (k-1)*B.Stride+j0+w8]
		gemmStrip2AVX2(&c0v[0], &c1v[0], &a0v[0], &a1v[0], &bv[0], B.Stride, k, w8)
		if w8 == w {
			return
		}
		c0, c1, j0, w = c0[w8:], c1[w8:], j0+w8, w-w8
	}
	gemmRowStrip2(c0, c1, a0, a1, B, j0, w, k)
}

// gemmStrip is gemmStrip2 for the odd last row of a block.
//
//lint:hotpath gemm remainder-row strip dispatch
func gemmStrip(ci, a []float32, B *tensor.Matrix, j0, w, k int) {
	if w8 := w &^ 7; useAVX2 && k > 0 && w8 > 0 {
		cv, av := ci[:w8], a[:k]
		bv := B.Data[j0 : (k-1)*B.Stride+j0+w8]
		gemmStripAVX2(&cv[0], &av[0], &bv[0], B.Stride, k, w8)
		if w8 == w {
			return
		}
		ci, j0, w = ci[w8:], j0+w8, w-w8
	}
	gemmRowStrip(ci, a, B, j0, w, k)
}

// gemmRowStrip2 computes two output strips at once with the k accumulation
// pipelined two B rows deep: per inner iteration it loads two B values and
// feeds both output rows' 2-term dot-product updates (a hand-unrolled 2×2
// tile). Each B element is loaded once per two C rows, consecutive j
// iterations stay independent so the out-of-order core overlaps them, and
// the whole strip sweep makes k/2 passes over each C strip instead of k.
// Wider tiles were measured and rejected: a full 4×4 register tile spills
// 16 accumulator chains past the scalar register file and runs >2× slower
// than this shape under the Go compiler.
//
//lint:hotpath 2×2 register tile, the gemm flop carrier
func gemmRowStrip2(c0, c1, a0, a1 []float32, B *tensor.Matrix, j0, w, k int) {
	if k == 0 {
		for j := range c0 {
			c0[j], c1[j] = 0, 0
		}
		return
	}
	// First B row initializes both strips (saves the zero-fill pass). The
	// reslices to a common length are bounds-check-elimination hints: they
	// let the compiler prove every indexed access below is in range.
	r0 := B.Data[j0 : j0+w]
	d0, d1 := c0[:len(r0)], c1[:len(r0)]
	av0, av1 := a0[0], a1[0]
	for j, bv := range r0 {
		d0[j] = av0 * bv
		d1[j] = av1 * bv
	}
	p := 1
	for ; p+1 < k; p += 2 {
		rp := B.Data[p*B.Stride+j0 : p*B.Stride+j0+w]
		rq := B.Data[(p+1)*B.Stride+j0 : (p+1)*B.Stride+j0+w]
		rq = rq[:len(rp)]
		d0, d1 = c0[:len(rp)], c1[:len(rp)]
		x0, x1 := a0[p], a0[p+1]
		y0, y1 := a1[p], a1[p+1]
		for j := range rp {
			bp, bq := rp[j], rq[j]
			d0[j] += x0*bp + x1*bq
			d1[j] += y0*bp + y1*bq
		}
	}
	for ; p < k; p++ {
		rp := B.Data[p*B.Stride+j0 : p*B.Stride+j0+w]
		d0, d1 = c0[:len(rp)], c1[:len(rp)]
		av, bv := a0[p], a1[p]
		for j, bv2 := range rp {
			d0[j] += av * bv2
			d1[j] += bv * bv2
		}
	}
}

// gemmRowStrip computes ci = Σ_p a[p]·B[p, j0:j0+w] with the k accumulation
// pipelined two rows at a time so the inner loop stays unit-stride over B.
// It handles the m%4 remainder rows of gemmBlocks.
//
//lint:hotpath remainder-row strip kernel
func gemmRowStrip(ci, a []float32, B *tensor.Matrix, j0, w, k int) {
	if k == 0 {
		for j := range ci {
			ci[j] = 0
		}
		return
	}
	// First row initializes the strip (saves the zero-fill pass). As in
	// gemmRowStrip2, the common-length reslices are BCE hints.
	b0 := B.Data[0*B.Stride+j0 : 0*B.Stride+j0+w]
	d := ci[:len(b0)]
	a0 := a[0]
	for j, bv := range b0 {
		d[j] = a0 * bv
	}
	p := 1
	for ; p+1 < k; p += 2 {
		r0 := B.Data[p*B.Stride+j0 : p*B.Stride+j0+w]
		r1 := B.Data[(p+1)*B.Stride+j0 : (p+1)*B.Stride+j0+w]
		r1 = r1[:len(r0)]
		d = ci[:len(r0)]
		av0, av1 := a[p], a[p+1]
		for j := range r0 {
			d[j] += av0*r0[j] + av1*r1[j]
		}
	}
	for ; p < k; p++ {
		rp := B.Data[p*B.Stride+j0 : p*B.Stride+j0+w]
		d = ci[:len(rp)]
		av := a[p]
		for j, bv := range rp {
			d[j] += av * bv
		}
	}
}

// SyrkAcc builds C = A·Aᵀ a column range at a time — the one way a lower
// triangle is accumulated in this tree: Syrk and BatchSyrkContext hand it a
// whole matrix, the fused correlation stage (corr.Pipeline.RunKernels) one
// cache-resident column block after another. Start from a zeroed C, Add the
// column ranges of A in ascending order, Finish once. It owns the
// transposed staging panel of one block (Fig. 7's A_localᵀ), so a goroutine
// keeps one and reuses it; the zero value is ready and a warm Add allocates
// nothing.
type SyrkAcc struct {
	tbuf []float32
}

var syrkPool = sync.Pool{New: func() any { return new(SyrkAcc) }}

// Add adds the product of A's columns [j0, j0+n) with their transpose to
// C's lower triangle, in block-wide slices (block <= 0 means
// DefaultSyrkBlock) taken in ascending order from j0. Each slice is staged
// transposed (tbuf[p*m+i] = A[i, j+p]) and summed into C after the ones
// before it, so C's bits depend only on where the slice boundaries fall:
// ranges that each start on a multiple of block, added in ascending order,
// give exactly the C one Add over all of A gives.
func (s *SyrkAcc) Add(C, A *tensor.Matrix, j0, n, block int) {
	if block <= 0 {
		block = DefaultSyrkBlock
	}
	checkSyrkShapes(C, A)
	if j0 < 0 || n < 0 || j0+n > A.Cols {
		panic(fmt.Sprintf("blas: syrk columns [%d, %d) out of range of %d", j0, j0+n, A.Cols))
	}
	obsBatchSyrkItems.Add(uint64((n + block - 1) / block))
	s.add(C, A, j0, n, block)
}

// add is Add without the checks and the slice counter (Syrk has its own
// of both).
//
//lint:hotpath syrk slice driver, once per column range per matrix
func (s *SyrkAcc) add(C, A *tensor.Matrix, j0, n, block int) {
	m := A.Rows
	for end := j0 + n; j0 < end; j0 += block {
		w := min(block, end-j0)
		if cap(s.tbuf) < m*w {
			//lint:allow allocfree grows only for a panel larger than any before it
			s.tbuf = make([]float32, m*w)
		}
		s.tbuf = s.tbuf[:m*w]
		stagePanel(s.tbuf, A, j0, w)
		syrkBlockKernel(C, s.tbuf, m, w)
	}
}

// stagePanel stages the A.Rows×w panel of A at column j0 transposed into
// dst (dst[p*m+i] = A[i, j0+p]), Fig. 7's A_localᵀ, so that the tiles'
// rank-1 updates are unit-stride. With AVX2, packPanelAVX2 moves the full
// 4-row groups' full 8-column groups and packTransposed the last m%4 rows
// and w%8 columns; otherwise packTransposed moves all of it. It is a copy,
// so the split cannot show in any bit.
//
//lint:hotpath syrk panel pack, once per slice
func stagePanel(dst []float32, A *tensor.Matrix, j0, w int) {
	m, i := A.Rows, 0
	if m4, w8 := m&^3, w&^7; useAVX2 && m4 > 0 && w8 > 0 {
		// Bounds-check once what the assembly addresses through raw pointers.
		src := A.Data[j0 : (m4-1)*A.Stride+j0+w8]
		out := dst[:(w8-1)*m+m4]
		packPanelAVX2(&out[0], &src[0], A.Stride, m, m4, w8)
		if w8 < w {
			packTransposed(dst[w8*m:], m, A, 0, j0+w8, m4, w-w8)
		}
		i = m4
	}
	packTransposed(dst[i:], m, A, i, j0, m-i, w)
}

// packTransposed copies the r×c block of src at (i0, j0) into dst
// transposed, with leading dimension ld: dst[j*ld+i] = src[i0+i, j0+j].
//
//lint:hotpath syrk panel pack, the Go path and the AVX2 path's edges
func packTransposed(dst []float32, ld int, src *tensor.Matrix, i0, j0, r, c int) {
	for i := 0; i < r; i++ {
		row := src.Data[(i0+i)*src.Stride+j0 : (i0+i)*src.Stride+j0+c]
		for j, v := range row {
			dst[j*ld+i] = v
		}
	}
}

// Finish copies C's accumulated lower triangle into its upper triangle.
func (*SyrkAcc) Finish(C *tensor.Matrix) {
	for i := 0; i < C.Rows; i++ {
		ri := C.Row(i)
		for j := 0; j < i; j++ {
			C.Data[j*C.Stride+i] = ri[j]
		}
	}
}

// Syrk computes C = A·Aᵀ via the Fig. 7 workflow, on the calling
// goroutine whatever Workers says: splitting one C across goroutines needs
// a merge whose summation order depends on the worker count, and the
// callers with many products to run use BatchSyrkContext, which hands each
// worker whole matrices.
func (t TallSkinny) Syrk(C, A *tensor.Matrix) {
	checkSyrkShapes(C, A)
	m, n := A.Rows, A.Cols
	C.Zero()
	if m == 0 || n == 0 {
		return
	}
	bn := t.syrkBlock()
	obsSyrkBlocks.Add(uint64((n + bn - 1) / bn))
	acc := syrkPool.Get().(*SyrkAcc)
	acc.add(C, A, 0, n, bn)
	acc.Finish(C)
	syrkPool.Put(acc)
}

// syrkBlockKernel accumulates local[i][j] += Σ_p tbuf[p*m+i]·tbuf[p*m+j]
// over the lower triangle using 4×4 register blocks. Off-diagonal blocks
// (j0 < i0) are always full-width and lie entirely inside the lower
// triangle, so they take the unguarded fully-unrolled kernel; only the one
// diagonal block per block-row pays the triangle logic.
//
// With AVX2, full 4-row bands are covered left to right by 4×8 assembly
// tiles for as long as a tile starts at or left of the diagonal block and
// fits in the row (j0+8 <= m), then by 4×4 assembly tiles up to and
// including the diagonal block (its last columns when m is not a multiple
// of 8: the diagonal block of rows 8–11 at m = 12). Only the m%4
// remainder band takes the Go blocks. A tile that reaches the diagonal
// also adds the (correct, symmetric) sums into lanes above it. Nothing
// reads those: SyrkAcc.Finish overwrites the upper triangle last.
//
//lint:hotpath syrk register-block driver, called once per panel per worker
func syrkBlockKernel(local *tensor.Matrix, tbuf []float32, m, w int) {
	const rb = 4
	if useAVX2 && m >= rb {
		// Bounds-check once what the tiles address through raw pointers.
		tbuf = tbuf[:w*m]
		_ = local.Data[(m-1)*local.Stride+m-1]
	}
	for i0 := 0; i0 < m; i0 += rb {
		ih := min(rb, m-i0)
		j0 := 0
		if useAVX2 && ih == rb {
			for ; j0 <= i0 && j0+8 <= m; j0 += 8 {
				syrkTile4x8AVX2(&local.Data[i0*local.Stride+j0], local.Stride, &tbuf[i0], &tbuf[j0], m, w)
			}
			for ; j0 <= i0; j0 += rb {
				syrkTile4x4AVX2(&local.Data[i0*local.Stride+j0], local.Stride, &tbuf[i0], &tbuf[j0], m, w)
			}
		}
		for ; j0 < i0; j0 += rb {
			syrkBlockOffDiag(local, tbuf, m, w, i0, ih, j0)
		}
		if j0 == i0 {
			syrkBlockDiag(local, tbuf, m, w, i0, ih)
		}
	}
}

// syrkBlockOffDiag accumulates the ih×4 off-diagonal register block at
// (i0, j0). Because j0+4 <= i0, every element satisfies j0+y < i0+x, so the
// writeback needs no per-element triangle guard.
func syrkBlockOffDiag(local *tensor.Matrix, tbuf []float32, m, w, i0, ih, j0 int) {
	if ih == 4 {
		// 16 scalar accumulators — the register-resident 4×4 tile.
		var c00, c01, c02, c03 float32
		var c10, c11, c12, c13 float32
		var c20, c21, c22, c23 float32
		var c30, c31, c32, c33 float32
		for p := 0; p < w; p++ {
			row := tbuf[p*m : p*m+m]
			rj := row[j0 : j0+4]
			b0, b1, b2, b3 := rj[0], rj[1], rj[2], rj[3]
			ri := row[i0 : i0+4]
			v0, v1, v2, v3 := ri[0], ri[1], ri[2], ri[3]
			c00 += v0 * b0
			c01 += v0 * b1
			c02 += v0 * b2
			c03 += v0 * b3
			c10 += v1 * b0
			c11 += v1 * b1
			c12 += v1 * b2
			c13 += v1 * b3
			c20 += v2 * b0
			c21 += v2 * b1
			c22 += v2 * b2
			c23 += v2 * b3
			c30 += v3 * b0
			c31 += v3 * b1
			c32 += v3 * b2
			c33 += v3 * b3
		}
		d0 := local.Row(i0)[j0 : j0+4]
		d0[0] += c00
		d0[1] += c01
		d0[2] += c02
		d0[3] += c03
		d1 := local.Row(i0 + 1)[j0 : j0+4]
		d1[0] += c10
		d1[1] += c11
		d1[2] += c12
		d1[3] += c13
		d2 := local.Row(i0 + 2)[j0 : j0+4]
		d2[0] += c20
		d2[1] += c21
		d2[2] += c22
		d2[3] += c23
		d3 := local.Row(i0 + 3)[j0 : j0+4]
		d3[0] += c30
		d3[1] += c31
		d3[2] += c32
		d3[3] += c33
		return
	}
	// Remainder block row (m % 4 rows tall), still unguarded on writeback.
	var acc [4][4]float32
	for p := 0; p < w; p++ {
		row := tbuf[p*m : p*m+m]
		rj := row[j0 : j0+4]
		ri := row[i0 : i0+ih]
		for x, av := range ri {
			acc[x][0] += av * rj[0]
			acc[x][1] += av * rj[1]
			acc[x][2] += av * rj[2]
			acc[x][3] += av * rj[3]
		}
	}
	for x := 0; x < ih; x++ {
		dst := local.Row(i0 + x)[j0 : j0+4]
		dst[0] += acc[x][0]
		dst[1] += acc[x][1]
		dst[2] += acc[x][2]
		dst[3] += acc[x][3]
	}
}

// syrkBlockDiag accumulates the lower triangle of the ih×ih diagonal block
// at (i0, i0). Only the 10 lower-triangle products are computed — the old
// kernel burned the full 16 and discarded 6 on writeback.
func syrkBlockDiag(local *tensor.Matrix, tbuf []float32, m, w, i0, ih int) {
	if ih == 4 {
		var c00 float32
		var c10, c11 float32
		var c20, c21, c22 float32
		var c30, c31, c32, c33 float32
		for p := 0; p < w; p++ {
			ri := tbuf[p*m+i0 : p*m+i0+4]
			v0, v1, v2, v3 := ri[0], ri[1], ri[2], ri[3]
			c00 += v0 * v0
			c10 += v1 * v0
			c11 += v1 * v1
			c20 += v2 * v0
			c21 += v2 * v1
			c22 += v2 * v2
			c30 += v3 * v0
			c31 += v3 * v1
			c32 += v3 * v2
			c33 += v3 * v3
		}
		d0 := local.Row(i0)
		d0[i0] += c00
		d1 := local.Row(i0 + 1)
		d1[i0] += c10
		d1[i0+1] += c11
		d2 := local.Row(i0 + 2)
		d2[i0] += c20
		d2[i0+1] += c21
		d2[i0+2] += c22
		d3 := local.Row(i0 + 3)
		d3[i0] += c30
		d3[i0+1] += c31
		d3[i0+2] += c32
		d3[i0+3] += c33
		return
	}
	// Remainder diagonal block (m % 4 rows).
	var acc [4][4]float32
	for p := 0; p < w; p++ {
		ri := tbuf[p*m+i0 : p*m+i0+ih]
		for x, av := range ri {
			for y := 0; y <= x; y++ {
				acc[x][y] += av * ri[y]
			}
		}
	}
	for x := 0; x < ih; x++ {
		dst := local.Row(i0 + x)
		for y := 0; y <= x; y++ {
			dst[i0+y] += acc[x][y]
		}
	}
}

var _ Sgemm = TallSkinny{}
