//go:build !amd64

package blas

// useAVX2 is never set off amd64: the Go kernels in tallskinny.go are the
// only path, and the routines below exist so the dispatch compiles.
var useAVX2 = false

func cpuHasAVX2() bool { return false }

func syrkTile4x8AVX2(c *float32, ldc int, ti, tj *float32, m, w int) {
	panic("blas: AVX2 syrk tile on a non-amd64 build")
}

func syrkTile4x4AVX2(c *float32, ldc int, ti, tj *float32, m, w int) {
	panic("blas: AVX2 syrk tile on a non-amd64 build")
}

func packPanelAVX2(dst, src *float32, lds, ldd, m, w int) {
	panic("blas: AVX2 syrk pack on a non-amd64 build")
}

func gemmStrip2AVX2(c0, c1, a0, a1, b *float32, ldb, k, n int) {
	panic("blas: AVX2 gemm strip on a non-amd64 build")
}

func gemmStripAVX2(c, a, b *float32, ldb, k, n int) {
	panic("blas: AVX2 gemm strip on a non-amd64 build")
}
