package blas

// lanes is the kernel path of the whole tree: 16 runs the ZMM forms
// (AVX-512F), 8 the YMM forms (AVX2 + FMA), 0 the Go twins. blas
// dispatches the TallSkinny inner loops on it — the syrk register tiles,
// the syrk panel pack and the gemm row strips of kernels_amd64.s — and
// internal/norm and internal/svm read it through Lanes wherever they
// dispatch to assembly of their own, so no package keeps a copy. It is set
// once, at init, from the CPUID/XGETBV probe; only tests write it
// afterwards, to hold the paths against each other.
//
// Every path feeds each output element the same terms in the same order
// and rounds each multiply-add once (VFMADD231PS, or fma32 in Go), so all
// of them produce the same float32 bits. fma32 rounds by explicit
// conversions the compiler may not fuse across, so that holds at any
// GOAMD64 level.
var lanes = probe()

// probe reads CPUID and XCR0 for the widest kernel the host runs. The YMM
// kernels need OSXSAVE, AVX and FMA (CPUID.1:ECX bits 27, 28, 12), XMM and
// YMM state enabled (XCR0 bits 1, 2) and AVX2 (CPUID.7.0:EBX bit 5); the
// ZMM kernels AVX-512F besides (CPUID.7.0:EBX bit 16) with opmask and ZMM
// state enabled (XCR0 bits 5–7). A host with AVX2 but no FMA runs the Go
// twins in every package.
func probe() int {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return 0
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&(1<<27|1<<28|1<<12) != 1<<27|1<<28|1<<12 {
		return 0
	}
	xcr0 := xgetbv()
	_, b7, _, _ := cpuid(7, 0)
	switch {
	case xcr0&6 != 6 || b7&(1<<5) == 0:
		return 0
	case b7&(1<<16) != 0 && xcr0&0xe0 == 0xe0:
		return 16
	}
	return 8
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() uint32

//go:noescape
func syrkTile4x16ZMM(c *float32, ldc int, ti, tj *float32, m, w int)

//go:noescape
func syrkTile4x8FMA(c *float32, ldc int, ti, tj *float32, m, w int)

//go:noescape
func syrkTile4x4FMA(c *float32, ldc int, ti, tj *float32, m, w int)

//go:noescape
func packPanelAVX2(dst, src *float32, lds, ldd, m, w int)

//go:noescape
func gemmStrip2ZMM(c0, c1, a0, a1, b *float32, ldb, k, n int)

//go:noescape
func gemmStrip2FMA(c0, c1, a0, a1, b *float32, ldb, k, n int)
