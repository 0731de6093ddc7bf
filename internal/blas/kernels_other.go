//go:build !amd64

package blas

// lanes is always 0 off amd64: the Go twins in tallskinny.go are the only
// path, and the routines below exist so the dispatch compiles.
var lanes = 0

func syrkTile4x16ZMM(c *float32, ldc int, ti, tj *float32, m, w int) {
	panic("blas: ZMM syrk tile on a non-amd64 build")
}

func syrkTile4x8FMA(c *float32, ldc int, ti, tj *float32, m, w int) {
	panic("blas: FMA syrk tile on a non-amd64 build")
}

func syrkTile4x4FMA(c *float32, ldc int, ti, tj *float32, m, w int) {
	panic("blas: FMA syrk tile on a non-amd64 build")
}

func packPanelAVX2(dst, src *float32, lds, ldd, m, w int) {
	panic("blas: AVX2 syrk pack on a non-amd64 build")
}

func gemmStrip2ZMM(c0, c1, a0, a1, b *float32, ldb, k, n int) {
	panic("blas: ZMM gemm strip on a non-amd64 build")
}

func gemmStrip2FMA(c0, c1, a0, a1, b *float32, ldb, k, n int) {
	panic("blas: FMA gemm strip on a non-amd64 build")
}
