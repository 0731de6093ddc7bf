package blas

import (
	"fmt"
	"math"
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
// within a block output rows are accumulated two at a time in register
// strips that chain a fused multiply-add down k, so each B element is
// loaded once per two assigned rows and no packing buffers are written.
//
// Syrk targets C[m×m] = A[m×n]·Aᵀ with huge n (Fig. 7): it marches down
// the long dimension in SyrkBlock-sized column blocks, stages each block in
// a transposed buffer (A_localᵀ) padded to whole four-row bands so the
// rank-1 updates are unit-stride, and accumulates through four-row
// register tiles of fused multiply-adds.
//
// Every kernel path — ZMM, YMM, or the Go twins where neither runs —
// rounds each multiply-add once and gives each element its terms in one
// order (kernels_amd64.s), so C's bits do not depend on the host.
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
// rows two at a time through the strip kernels; the odd last row goes
// through them paired with itself, so both halves compute and store the
// same bits.
func gemmBlocks(C, A, B *tensor.Matrix, b0, b1, nb int) {
	m, k, n := A.Rows, A.Cols, B.Cols
	for b := b0; b < b1; b++ {
		j0 := b * nb
		w := min(nb, n-j0)
		for i := 0; i < m; i += 2 {
			i1 := min(i+1, m-1)
			c0 := C.Data[i*C.Stride+j0 : i*C.Stride+j0+w]
			c1 := C.Data[i1*C.Stride+j0 : i1*C.Stride+j0+w]
			gemmStrip2(c0, c1, A.Row(i), A.Row(i1), B, j0, w, k)
		}
	}
}

// gemmStrip2 computes two output strips of w >= 1 columns: with an FMA
// path all of them in one assembly call, whose last column group runs
// masked; otherwise (and for k = 0) a row at a time in gemmRowStrip. The
// reslices bounds-check everything the assembly touches.
func gemmStrip2(c0, c1, a0, a1 []float32, B *tensor.Matrix, j0, w, k int) {
	if lanes == 0 || k == 0 {
		gemmRowStrip(c0, a0, B, j0, w, k)
		gemmRowStrip(c1, a1, B, j0, w, k)
		return
	}
	c0, c1, a0, a1 = c0[:w], c1[:w], a0[:k], a1[:k]
	bv := B.Data[j0 : (k-1)*B.Stride+j0+w]
	if lanes == 16 {
		gemmStrip2ZMM(&c0[0], &c1[0], &a0[0], &a1[0], &bv[0], B.Stride, k, w)
	} else {
		gemmStrip2FMA(&c0[0], &c1[0], &a0[0], &a1[0], &bv[0], B.Stride, k, w)
	}
}

// gemmRowStrip is the Go twin of the gemm strips, one output row:
// ci[j] = a[0]·B[0, j0+j], then ci[j] = fma32(a[p], B[p, j0+j], ci[j]) for
// p = 1 … k−1 — the assembly's per-element order, one B row at a time.
func gemmRowStrip(ci, a []float32, B *tensor.Matrix, j0, w, k int) {
	ci = ci[:w]
	if k == 0 {
		clear(ci)
		return
	}
	a0 := a[0]
	for j, b := range B.Data[j0 : j0+w] {
		ci[j] = a0 * b
	}
	for p := 1; p < k; p++ {
		ap := a[p]
		for j, b := range B.Data[p*B.Stride+j0 : p*B.Stride+j0+w] {
			ci[j] = fma32(ap, b, ci[j])
		}
	}
}

// fma32 returns a·b + c rounded once to float32, as VFMADD231PS does. The
// product of two float32s is exact in float64, and TwoSum splits p + c
// into its float64 rounding s and the exact error e; rounding s to odd
// (stepping an even s one ulp towards e when e != 0) keeps the information
// a second rounding needs, so float32(s) is correctly rounded — float64
// carries more than the 24 + 2 bits that takes. The explicit conversions
// forbid the compiler to fuse any of it. float32(math.FMA(…)) is not this
// function: it rounds to float64 first, and a tie it creates rounds to even
// (a = b = 1+2⁻¹², c = 2⁻⁸⁰ gives 0x3f801000, not 0x3f801001).
func fma32(a, b, c float32) float32 {
	p := float64(float64(a) * float64(b))
	q := float64(c)
	s := float64(p + q)
	if math.IsInf(s, 0) || s != s {
		return float32(s)
	}
	z := float64(s - p)
	e := float64(p-float64(s-z)) + float64(q-z)
	if bits := math.Float64bits(s); e != 0 && bits&1 == 0 {
		if (e > 0) == (s > 0) {
			bits++
		} else {
			bits--
		}
		s = math.Float64frombits(bits)
	}
	return float32(s)
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
// of both). One buffer holds the staged panel and, behind it, the four-row
// scratch band of syrkBlockKernel.
func (s *SyrkAcc) add(C, A *tensor.Matrix, j0, n, block int) {
	mp := padRows(A.Rows)
	for end := j0 + n; j0 < end; j0 += block {
		w := min(block, end-j0)
		if cap(s.tbuf) < mp*(w+4) {
			s.tbuf = make([]float32, mp*(w+4))
		}
		panel := s.tbuf[:mp*w]
		stagePanel(panel, A, j0, w)
		syrkBlockKernel(C, panel, s.tbuf[mp*w:mp*(w+4)], A.Rows, w)
	}
}

// padRows is the staged panel's height: m rounded up to a multiple of 4,
// the tiles' band height.
func padRows(m int) int { return (m + 3) &^ 3 }

// stagePanel stages the A.Rows×w panel of A at column j0 transposed into
// dst with leading dimension mp = padRows(A.Rows) (dst[p*mp+i] = A[i, j0+p],
// zero for i >= A.Rows), Fig. 7's A_localᵀ, so that the tiles' rank-1
// updates are unit-stride and every band of four staged rows is whole. On
// an FMA path packPanelAVX2 moves the full 4-row groups' full 8-column
// groups and packTransposed the last m%4 rows and w%8 columns; otherwise
// packTransposed moves all of it. It is a copy, so the split cannot show
// in any bit.
func stagePanel(dst []float32, A *tensor.Matrix, j0, w int) {
	m, i := A.Rows, 0
	mp := padRows(m)
	if m4, w8 := m&^3, w&^7; lanes > 0 && m4 > 0 && w8 > 0 {
		// Bounds-check once what the assembly addresses through raw pointers.
		src := A.Data[j0 : (m4-1)*A.Stride+j0+w8]
		out := dst[:(w8-1)*mp+m4]
		packPanelAVX2(&out[0], &src[0], A.Stride, mp, m4, w8)
		if w8 < w {
			packTransposed(dst[w8*mp:], mp, A, 0, j0+w8, m4, w-w8)
		}
		i = m4
	}
	packTransposed(dst[i:], mp, A, i, j0, m-i, w)
	for p := 0; p < w && m < mp; p++ {
		clear(dst[p*mp+m : (p+1)*mp])
	}
}

// packTransposed copies the r×c block of src at (i0, j0) into dst
// transposed, with leading dimension ld: dst[j*ld+i] = src[i0+i, j0+j].
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

// syrkBlockKernel accumulates C[i][j] += Σ_p tbuf[p*mp+i]·tbuf[p*mp+j]
// over the lower triangle, from a panel staged by stagePanel (mp =
// padRows(m)): on the Go path by syrkGo, on an FMA path by the tiles, a
// band of four rows at a time (syrkBand). The full bands add straight into
// C. The last m%4 rows' band runs into band, a 4×mp scratch holding a copy
// of those rows of C and zeros below and right of them, and its valid rows
// are copied back: a tile adds into the copy exactly as it would into C,
// and no valid element's sum touches a padded row, so the bits are the
// twin's. A tile that reaches past the diagonal also adds (correct,
// symmetric) sums into lanes above it. Nothing reads those:
// SyrkAcc.Finish overwrites the upper triangle last.
func syrkBlockKernel(C *tensor.Matrix, tbuf, band []float32, m, w int) {
	mp := padRows(m)
	if lanes == 0 {
		syrkGo(C, tbuf, m, mp, w)
		return
	}
	tbuf = tbuf[:w*mp]
	m4 := m &^ 3
	for i0 := 0; i0 < m4; i0 += 4 {
		syrkBand(C.Data[i0*C.Stride:], C.Stride, tbuf, i0, m, mp, w)
	}
	if m4 == m {
		return
	}
	band = band[:4*mp]
	clear(band)
	for x := 0; m4+x < m; x++ {
		copy(band[x*mp:], C.Row(m4+x))
	}
	syrkBand(band, mp, tbuf, m4, mp, mp, w)
	for x := 0; m4+x < m; x++ {
		copy(C.Row(m4+x), band[x*mp:])
	}
}

// syrkBand runs the band of staged rows i0 … i0+3 into c (that band's row
// 0, column 0; rows ldc apart), left to right for as long as a tile starts
// at or left of the diagonal block and ends within limit columns: 4×16 ZMM
// tiles, then 4×8 YMM tiles, then 4×4 XMM tiles up to and including the
// diagonal block.
func syrkBand(c []float32, ldc int, tbuf []float32, i0, limit, mp, w int) {
	// Bounds-check once what the tiles address through raw pointers.
	c = c[:3*ldc+limit]
	j0 := 0
	if lanes == 16 {
		for ; j0 <= i0 && j0+16 <= limit; j0 += 16 {
			syrkTile4x16ZMM(&c[j0], ldc, &tbuf[i0], &tbuf[j0], mp, w)
		}
	}
	for ; j0 <= i0 && j0+8 <= limit; j0 += 8 {
		syrkTile4x8FMA(&c[j0], ldc, &tbuf[i0], &tbuf[j0], mp, w)
	}
	for ; j0 <= i0; j0 += 4 {
		syrkTile4x4FMA(&c[j0], ldc, &tbuf[i0], &tbuf[j0], mp, w)
	}
}

// syrkGo is the Go twin of the syrk tiles: each lower-triangle element
// gets E + O, E chaining fma32 over the even staged rows from zero and O
// over the odd ones — the tiles' per-element order.
func syrkGo(C *tensor.Matrix, tbuf []float32, m, mp, w int) {
	for i := 0; i < m; i++ {
		ci := C.Row(i)
		for j := 0; j <= i; j++ {
			var e, o float32
			for p := 0; p < w; p++ {
				ti, tj := tbuf[p*mp+i], tbuf[p*mp+j]
				if p&1 == 0 {
					e = fma32(ti, tj, e)
				} else {
					o = fma32(ti, tj, o)
				}
			}
			ci[j] += e + o
		}
	}
}

var _ Sgemm = TallSkinny{}
