//go:build amd64

#include "textflag.h"

// AVX2 micro-kernels behind the TallSkinny seam. Every routine uses
// separate VMULPS and VADDPS — never FMA — and accumulates each output
// element in exactly the order of the Go kernel it stands in for, so the
// results are bit-identical to tallskinny.go's (see kernels_amd64.go).
// Every routine ends VZEROUPPER; RET so the SSE code the Go compiler
// emits never pays the dirty-upper-half transition penalty.

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID.1:ECX reports OSXSAVE and AVX, XCR0 says the
// OS saves both XMM and YMM state, and CPUID.7.0:EBX reports AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) | AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: SSE (bit 1) | AVX (bit 2) state enabled
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX // AVX2
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET

// func syrkTile4x8AVX2(c *float32, ldc int, ti, tj *float32, m, w int)
//
// c[x*ldc+y] += Σ_{p<w} ti[p*m+x]·tj[p*m+y] for x < 4, y < 8: four YMM
// accumulators start at zero, take one product per staged row p in
// ascending p, and are added into c once at the end — syrkBlockOffDiag's
// per-element sequence, eight columns at a time.
TEXT ·syrkTile4x8AVX2(SB), NOSPLIT, $0-48
	MOVQ   c+0(FP), DI
	MOVQ   ldc+8(FP), SI
	MOVQ   ti+16(FP), R8
	MOVQ   tj+24(FP), R9
	MOVQ   m+32(FP), R10
	MOVQ   w+40(FP), CX
	SHLQ   $2, SI
	SHLQ   $2, R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ  CX, CX
	JZ     tilesum

tilestep:
	VMOVUPS      (R9), Y4
	VBROADCASTSS (R8), Y5
	VBROADCASTSS 4(R8), Y6
	VBROADCASTSS 8(R8), Y7
	VBROADCASTSS 12(R8), Y8
	VMULPS       Y4, Y5, Y5
	VMULPS       Y4, Y6, Y6
	VMULPS       Y4, Y7, Y7
	VMULPS       Y4, Y8, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	ADDQ         R10, R8
	ADDQ         R10, R9
	DECQ         CX
	JNZ          tilestep

tilesum:
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    SI, DI
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    SI, DI
	VADDPS  (DI), Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    SI, DI
	VADDPS  (DI), Y3, Y3
	VMOVUPS Y3, (DI)
	VZEROUPPER
	RET

// func gemmStrip2AVX2(c0, c1, a0, a1, b *float32, ldb, k, n int)
//
// gemmRowStrip2 over the first n columns of a strip, n a positive
// multiple of 8 and k ≥ 1: per 8-column group the two rows' sums live in
// Y0/Y1 across the whole k loop — first-row product, then one
// (x0·bp + x1·bq) term per B-row pair, then the odd-k tail product — and
// are stored once. The Go kernel sweeps the strip once per pair instead;
// the per-element operation sequence is the same.
TEXT ·gemmStrip2AVX2(SB), NOSPLIT, $0-64
	MOVQ c0+0(FP), DI
	MOVQ c1+8(FP), SI
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ b+32(FP), R10
	MOVQ ldb+40(FP), R11
	MOVQ k+48(FP), R12
	MOVQ n+56(FP), CX
	SHLQ $2, R11
	SHRQ $3, CX

strip2group:
	MOVQ         R10, BX
	VMOVUPS      (BX), Y4
	VBROADCASTSS (R8), Y2
	VBROADCASTSS (R9), Y3
	VMULPS       Y4, Y2, Y0
	VMULPS       Y4, Y3, Y1
	MOVQ         $1, DX

strip2pair:
	LEAQ         1(DX), AX
	CMPQ         AX, R12
	JGE          strip2tail
	ADDQ         R11, BX
	VMOVUPS      (BX), Y4
	ADDQ         R11, BX
	VMOVUPS      (BX), Y5
	VBROADCASTSS (R8)(DX*4), Y6
	VBROADCASTSS 4(R8)(DX*4), Y7
	VBROADCASTSS (R9)(DX*4), Y8
	VBROADCASTSS 4(R9)(DX*4), Y9
	VMULPS       Y4, Y6, Y6
	VMULPS       Y5, Y7, Y7
	VMULPS       Y4, Y8, Y8
	VMULPS       Y5, Y9, Y9
	VADDPS       Y7, Y6, Y6
	VADDPS       Y9, Y8, Y8
	VADDPS       Y6, Y0, Y0
	VADDPS       Y8, Y1, Y1
	ADDQ         $2, DX
	JMP          strip2pair

strip2tail:
	CMPQ         DX, R12
	JGE          strip2store
	ADDQ         R11, BX
	VMOVUPS      (BX), Y4
	VBROADCASTSS (R8)(DX*4), Y6
	VBROADCASTSS (R9)(DX*4), Y8
	VMULPS       Y4, Y6, Y6
	VMULPS       Y4, Y8, Y8
	VADDPS       Y6, Y0, Y0
	VADDPS       Y8, Y1, Y1

strip2store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R10
	DECQ    CX
	JNZ     strip2group
	VZEROUPPER
	RET

// func gemmStripAVX2(c, a, b *float32, ldb, k, n int)
//
// gemmRowStrip over the first n columns of a strip: gemmStrip2AVX2 for a
// single output row.
TEXT ·gemmStripAVX2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R10
	MOVQ ldb+24(FP), R11
	MOVQ k+32(FP), R12
	MOVQ n+40(FP), CX
	SHLQ $2, R11
	SHRQ $3, CX

stripgroup:
	MOVQ         R10, BX
	VMOVUPS      (BX), Y4
	VBROADCASTSS (R8), Y2
	VMULPS       Y4, Y2, Y0
	MOVQ         $1, DX

strippair:
	LEAQ         1(DX), AX
	CMPQ         AX, R12
	JGE          striptail
	ADDQ         R11, BX
	VMOVUPS      (BX), Y4
	ADDQ         R11, BX
	VMOVUPS      (BX), Y5
	VBROADCASTSS (R8)(DX*4), Y6
	VBROADCASTSS 4(R8)(DX*4), Y7
	VMULPS       Y4, Y6, Y6
	VMULPS       Y5, Y7, Y7
	VADDPS       Y7, Y6, Y6
	VADDPS       Y6, Y0, Y0
	ADDQ         $2, DX
	JMP          strippair

striptail:
	CMPQ         DX, R12
	JGE          stripstore
	ADDQ         R11, BX
	VMOVUPS      (BX), Y4
	VBROADCASTSS (R8)(DX*4), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y0, Y0

stripstore:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R10
	DECQ    CX
	JNZ     stripgroup
	VZEROUPPER
	RET
