package blas

// useAVX2 routes the TallSkinny inner loops — the syrk register tiles, the
// syrk panel pack and the gemm row strips — through the assembly in
// kernels_amd64.s.
// It is set once, at init, from the CPUID/XGETBV probe; only tests write
// it afterwards, to hold the two paths against each other.
//
// The assembly multiplies and adds separately (no FMA) and feeds each
// output element the same products in the same order as the Go kernels,
// so both paths produce the same float32 bits. That pin is stated for the
// default GOAMD64=v1: at v3 the Go compiler may itself fuse x*y+z in the
// reference kernels.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func syrkTile4x8AVX2(c *float32, ldc int, ti, tj *float32, m, w int)

//go:noescape
func syrkTile4x4AVX2(c *float32, ldc int, ti, tj *float32, m, w int)

//go:noescape
func packPanelAVX2(dst, src *float32, lds, ldd, m, w int)

//go:noescape
func gemmStrip2AVX2(c0, c1, a0, a1, b *float32, ldb, k, n int)

//go:noescape
func gemmStripAVX2(c, a, b *float32, ldb, k, n int)
