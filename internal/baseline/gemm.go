package baseline

import (
	"context"
	"fmt"
	"runtime"

	"fcma/internal/blas"
	"fcma/internal/safe"
	"fcma/internal/tensor"
)

// BLAS is a general-purpose blocked GEMM/SYRK in the style of a vendor
// BLAS (the paper's Intel MKL baseline). It implements the Goto algorithm:
// the k and n dimensions are partitioned into KC×NC panels of B that are
// packed into contiguous buffers, MC×KC panels of A are packed likewise,
// and an MR×NR register micro-kernel walks the packed panels.
//
// This strategy is excellent for large, nearly-square operands and — by
// construction — wasteful for FCMA's tall-skinny shapes: with k ≈ 12 the
// packing traffic is of the same order as the arithmetic, which is exactly
// the behaviour the paper measures for MKL (34.9 billion memory references
// where the arithmetic needs fewer than 10 billion; see Table 1).
type BLAS struct {
	// Workers bounds the number of goroutines; 0 means GOMAXPROCS.
	Workers int
	// MC, KC, NC are the cache-blocking panel sizes. Zero values select
	// defaults tuned for large square operands (MC=128, KC=256, NC=4096).
	MC, KC, NC int
}

func (b BLAS) params() (mc, kc, nc int) {
	mc, kc, nc = b.MC, b.KC, b.NC
	if mc <= 0 {
		mc = 128
	}
	if kc <= 0 {
		kc = 256
	}
	if nc <= 0 {
		nc = 4096
	}
	return mc, kc, nc
}

// The micro-kernel's register tile.
const (
	mr = 4
	nr = 8
)

// Gemm computes C = A·B with panel packing and an MR×NR micro-kernel.
func (b BLAS) Gemm(C, A, B *tensor.Matrix) {
	if A.Cols != B.Rows || C.Rows != A.Rows || C.Cols != B.Cols {
		panic(fmt.Sprintf("baseline: gemm shape mismatch C[%dx%d] = A[%dx%d]·B[%dx%d]",
			C.Rows, C.Cols, A.Rows, A.Cols, B.Rows, B.Cols))
	}
	m, k, n := A.Rows, A.Cols, B.Cols
	if m == 0 || n == 0 {
		return
	}
	for i := 0; i < m; i++ {
		row := C.Data[i*C.Stride : i*C.Stride+n]
		for j := range row {
			row[j] = 0
		}
	}
	if k == 0 {
		return
	}
	mc, kc, nc := b.params()

	// Parallelize across NC column panels: each panel of C columns is
	// written by exactly one goroutine.
	nPanels := (n + nc - 1) / nc
	parallelFor(nPanels, b.Workers, func(p0, p1 int) {
		packedB := make([]float32, kc*nc)
		packedA := make([]float32, mc*kc)
		for p := p0; p < p1; p++ {
			jc := p * nc
			nb := min(nc, n-jc)
			for pc := 0; pc < k; pc += kc {
				kb := min(kc, k-pc)
				packPanelB(packedB, B, pc, jc, kb, nb)
				for ic := 0; ic < m; ic += mc {
					mb := min(mc, m-ic)
					packPanelA(packedA, A, ic, pc, mb, kb)
					macroKernel(C, packedA, packedB, ic, jc, mb, nb, kb)
				}
			}
		}
	})
}

// packPanelB packs the kb×nb block of B at (pc, jc) into column strips of
// width NR: strip j holds rows 0..kb of columns [j*NR, j*NR+NR).
func packPanelB(dst []float32, B *tensor.Matrix, pc, jc, kb, nb int) {
	idx := 0
	for j := 0; j < nb; j += nr {
		w := min(nr, nb-j)
		for p := 0; p < kb; p++ {
			row := B.Data[(pc+p)*B.Stride+jc+j:]
			for x := 0; x < w; x++ {
				dst[idx] = row[x]
				idx++
			}
			for x := w; x < nr; x++ {
				dst[idx] = 0
				idx++
			}
		}
	}
}

// packPanelA packs the mb×kb block of A at (ic, pc) into row strips of
// height MR: strip i holds columns 0..kb of rows [i*MR, i*MR+MR).
func packPanelA(dst []float32, A *tensor.Matrix, ic, pc, mb, kb int) {
	idx := 0
	for i := 0; i < mb; i += mr {
		h := min(mr, mb-i)
		for p := 0; p < kb; p++ {
			for x := 0; x < h; x++ {
				dst[idx] = A.Data[(ic+i+x)*A.Stride+pc+p]
				idx++
			}
			for x := h; x < mr; x++ {
				dst[idx] = 0
				idx++
			}
		}
	}
}

func macroKernel(C *tensor.Matrix, packedA, packedB []float32, ic, jc, mb, nb, kb int) {
	for i := 0; i < mb; i += mr {
		h := min(mr, mb-i)
		aStrip := packedA[(i/mr)*kb*mr:]
		for j := 0; j < nb; j += nr {
			w := min(nr, nb-j)
			bStrip := packedB[(j/nr)*kb*nr:]
			microKernel(C, aStrip, bStrip, ic+i, jc+j, h, w, kb)
		}
	}
}

// microKernel accumulates an MR×NR block of C from packed strips.
func microKernel(C *tensor.Matrix, a, b []float32, ci, cj, h, w, kb int) {
	var acc [mr][nr]float32
	for p := 0; p < kb; p++ {
		ap := a[p*mr : p*mr+mr]
		bp := b[p*nr : p*nr+nr]
		for x := 0; x < mr; x++ {
			av := ap[x]
			for y := 0; y < nr; y++ {
				acc[x][y] += av * bp[y]
			}
		}
	}
	for x := 0; x < h; x++ {
		row := C.Data[(ci+x)*C.Stride+cj:]
		for y := 0; y < w; y++ {
			row[y] += acc[x][y]
		}
	}
}

// Syrk computes C = A·Aᵀ the way a general GEMM-based path behaves on this
// shape: it materializes Aᵀ and runs the packed GEMM over the full output.
// A vendor BLAS avoids half the arithmetic via symmetry but still pays the
// packing traffic on M×N · N×M with tiny M, which is what Table 5 measures
// (108 GFLOPS for MKL vs 430 for the paper's kernel).
func (b BLAS) Syrk(C, A *tensor.Matrix) {
	at := transposeParallel(A, b.Workers)
	b.Gemm(C, A, at) // its shape check is this product's: C must be A.Rows square
	// Symmetrize to wash out non-associative float differences between the
	// (i,j) and (j,i) accumulation orders.
	for i := 0; i < C.Rows; i++ {
		for j := 0; j < i; j++ {
			v := C.At(i, j)
			C.Set(j, i, v)
		}
	}
}

func transposeParallel(A *tensor.Matrix, workers int) *tensor.Matrix {
	out := tensor.NewMatrix(A.Cols, A.Rows)
	parallelFor(A.Rows, workers, func(start, end int) {
		for i := start; i < end; i++ {
			row := A.Row(i)
			for j, v := range row {
				out.Data[j*out.Stride+i] = v
			}
		}
	})
	return out
}

// parallelFor runs fn(start, end) over [0, n) in contiguous chunks of
// ceil(n/workers) indices (workers <= 0: GOMAXPROCS), one per item of the
// shared driver; a chunk's panic is re-thrown on the caller.
func parallelFor(n, workers int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	chunk := (n + workers - 1) / workers
	err := safe.ParallelDynamic(context.Background(), safe.Span{Stage: "baseline/kernel"}, (n+chunk-1)/chunk, workers,
		func(_ context.Context, c int) error {
			fn(c*chunk, min((c+1)*chunk, n))
			return nil
		})
	if err != nil {
		panic(err)
	}
}

var _ blas.Sgemm = BLAS{}
