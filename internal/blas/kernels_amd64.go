package blas

// lanes routes the TallSkinny inner loops — the syrk register tiles, the
// syrk panel pack and the gemm row strips — to the assembly in
// kernels_amd64.s: 16 to the ZMM forms (AVX-512F), 8 to the YMM forms
// (AVX2 + FMA), 0 to the Go twins in tallskinny.go. It is set once, at
// init, from the CPUID/XGETBV probe; only tests write it afterwards, to
// hold the paths against each other.
//
// Every path feeds each output element the same terms in the same order
// and rounds each multiply-add once (VFMADD231PS, or fma32 in Go), so all
// of them produce the same float32 bits. fma32 rounds by explicit
// conversions the compiler may not fuse across, so that holds at any
// GOAMD64 level.
var lanes = hostLanes

// hasAVX2 and hostLanes are the probe's verdict: AVX2 usable (HasAVX2, for
// the packages with AVX2 assembly of their own), and the widest FMA kernel
// the host runs. internal/norm reads hostLanes by linkname for its ZMM
// sweep, so the tree keeps one probe.
var hasAVX2, hostLanes = probe()

// probe reads CPUID and XCR0: AVX2 needs OSXSAVE and AVX
// (CPUID.1:ECX bits 27, 28), XMM and YMM state enabled (XCR0 bits 1, 2)
// and AVX2 (CPUID.7.0:EBX bit 5); the YMM kernels need FMA besides
// (CPUID.1:ECX bit 12), the ZMM kernels AVX-512F (CPUID.7.0:EBX bit 16)
// with opmask and ZMM state enabled (XCR0 bits 5–7).
func probe() (avx2 bool, lanes int) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, 0
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&(1<<27|1<<28) != 1<<27|1<<28 {
		return false, 0
	}
	xcr0 := xgetbv()
	_, b7, _, _ := cpuid(7, 0)
	if xcr0&6 != 6 || b7&(1<<5) == 0 {
		return false, 0
	}
	switch {
	case c1&(1<<12) == 0:
		return true, 0
	case b7&(1<<16) != 0 && xcr0&0xe0 == 0xe0:
		return true, 16
	}
	return true, 8
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
