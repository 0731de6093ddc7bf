//go:build !amd64

package norm

// blas.Lanes is always 0 off amd64: the Go loops in sweep are the only
// path, and the routines below exist so the dispatch compiles.

func fisherRowZMM(row *float32, n int, tailR *float32, tailJ *int32) {
	panic("norm: AVX-512 sweep on a non-amd64 build")
}

func fisherRowAVX2(row *float32, n int, tailR *float32, tailJ *int32) {
	panic("norm: AVX2 sweep on a non-amd64 build")
}

func zscorePanelsAVX2(dst *float32, dstStride int, src *float32, srcStride int, rows, n int) {
	panic("norm: AVX2 sweep on a non-amd64 build")
}
