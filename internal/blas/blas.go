// Package blas implements the single-precision matrix kernels FCMA is built
// on: general matrix multiplication (sgemm) and symmetric rank-k update
// (ssyrk, C = A·Aᵀ).
//
// Two gemm families are provided (the general-purpose packing BLAS the
// paper measures them against is a comparator, in internal/baseline):
//
//   - Naive: textbook triple loop, the correctness reference.
//   - TallSkinny: the paper's optimization idea #1/#3 — block the long
//     dimension to fit L2, keep the inner loop unit-stride over the wide
//     operand, and accumulate across the tiny k dimension in registers.
//
// The syrk is the paper's Fig. 7 workflow: march down the long dimension
// in 96-column blocks, stage each block in a local buffer, transpose
// micro-panels for unit-stride products and add each block's partial
// product into the output in ascending order. SyrkAcc is that accumulation
// — TallSkinny.Syrk and BatchSyrkContext over a whole matrix, the fused
// correlation stage over one column block at a time.
package blas

import (
	"fmt"

	"fcma/internal/tensor"
)

// Sgemm computes C = A·B for single-precision dense matrices.
type Sgemm interface {
	// Gemm computes C = A·B, overwriting C. Shapes must satisfy
	// A: m×k, B: k×n, C: m×n (C.Stride may exceed n to interleave output).
	Gemm(C, A, B *tensor.Matrix)
}

// Lanes is the kernel path: 16 for the ZMM forms (AVX-512F), 8 for the
// YMM forms (AVX2 + FMA), 0 for the Go twins, and always 0 off amd64. It
// is the one switch of the tree, set from the one CPUID/XGETBV probe:
// internal/norm and internal/svm read it wherever they dispatch to
// assembly of their own, so every stage runs the same path.
func Lanes() int { return lanes }

func checkGemmShapes(C, A, B *tensor.Matrix) {
	if A.Cols != B.Rows || C.Rows != A.Rows || C.Cols != B.Cols {
		panic(fmt.Sprintf("blas: gemm shape mismatch C[%dx%d] = A[%dx%d]·B[%dx%d]",
			C.Rows, C.Cols, A.Rows, A.Cols, B.Rows, B.Cols))
	}
}

func checkSyrkShapes(C, A *tensor.Matrix) {
	if C.Rows != A.Rows || C.Cols != A.Rows {
		panic(fmt.Sprintf("blas: syrk shape mismatch C[%dx%d] = A[%dx%d]·Aᵀ",
			C.Rows, C.Cols, A.Rows, A.Cols))
	}
}

// GemmFlops returns the floating point operation count of an m×k·k×n
// product (one multiply and one add per inner element).
func GemmFlops(m, k, n int) int64 {
	return 2 * int64(m) * int64(k) * int64(n)
}

// SyrkFlops returns the floating point operation count of an m×n·n×m
// symmetric product when only one triangle is computed.
func SyrkFlops(m, n int) int64 {
	// m*(m+1)/2 output elements, 2n flops each.
	return int64(m) * int64(m+1) * int64(n)
}
