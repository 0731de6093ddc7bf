//go:build amd64

#include "textflag.h"

// AVX2 micro-kernels behind the TallSkinny seam. Every arithmetic routine
// uses separate VMULPS and VADDPS — never FMA — and accumulates each output
// element in exactly the order of the Go kernel it stands in for, so the
// results are bit-identical to tallskinny.go's (see kernels_amd64.go); the
// panel pack only moves values.
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

// func syrkTile4x4AVX2(c *float32, ldc int, ti, tj *float32, m, w int)
//
// syrkTile4x8AVX2 on four columns: the same broadcast, VMULPS then VADDPS
// per staged row and one add into c at the end, on XMM registers. It takes
// the blocks of a full 4-row band the 4×8 tile cannot reach.
TEXT ·syrkTile4x4AVX2(SB), NOSPLIT, $0-48
	MOVQ   c+0(FP), DI
	MOVQ   ldc+8(FP), SI
	MOVQ   ti+16(FP), R8
	MOVQ   tj+24(FP), R9
	MOVQ   m+32(FP), R10
	MOVQ   w+40(FP), CX
	SHLQ   $2, SI
	SHLQ   $2, R10
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	TESTQ  CX, CX
	JZ     tile4sum

tile4step:
	VMOVUPS      (R9), X4
	VBROADCASTSS (R8), X5
	VBROADCASTSS 4(R8), X6
	VBROADCASTSS 8(R8), X7
	VBROADCASTSS 12(R8), X8
	VMULPS       X4, X5, X5
	VMULPS       X4, X6, X6
	VMULPS       X4, X7, X7
	VMULPS       X4, X8, X8
	VADDPS       X5, X0, X0
	VADDPS       X6, X1, X1
	VADDPS       X7, X2, X2
	VADDPS       X8, X3, X3
	ADDQ         R10, R8
	ADDQ         R10, R9
	DECQ         CX
	JNZ          tile4step

tile4sum:
	VADDPS  (DI), X0, X0
	VMOVUPS X0, (DI)
	ADDQ    SI, DI
	VADDPS  (DI), X1, X1
	VMOVUPS X1, (DI)
	ADDQ    SI, DI
	VADDPS  (DI), X2, X2
	VMOVUPS X2, (DI)
	ADDQ    SI, DI
	VADDPS  (DI), X3, X3
	VMOVUPS X3, (DI)
	VZEROUPPER
	RET

// func packPanelAVX2(dst, src *float32, lds, ldd, m, w int)
//
// dst[p*ldd+i] = src[i*lds+p] for i < m, p < w, m a positive multiple of
// 4 and w a positive multiple of 8: the syrk panel's transposing copy.
// Per 8-column group it walks the rows down, eight at a time through an
// 8×8 register transpose (VUNPCKLPS/VUNPCKHPS pair rows, VSHUFPS gathers
// each column's four rows per 128-bit lane, VPERM2F128 joins the lanes)
// and a last four through the same steps without the join, storing each
// lane's column with VMOVUPS or VEXTRACTF128. Loads and stores only.
TEXT ·packPanelAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), R8
	MOVQ src+8(FP), AX
	MOVQ lds+16(FP), R9
	MOVQ ldd+24(FP), R11
	MOVQ w+40(FP), CX
	SHLQ $2, R9
	SHLQ $2, R11
	LEAQ (R9)(R9*2), R10  // 3 source rows
	LEAQ (R11)(R11*2), R12 // 3 destination columns
	SHRQ $3, CX

packcol:
	MOVQ R8, DI
	MOVQ AX, SI
	MOVQ m+32(FP), R13

packrow8:
	CMPQ       R13, $8
	JLT        packrow4
	LEAQ       (SI)(R9*4), BX
	VMOVUPS    (SI), Y0
	VMOVUPS    (SI)(R9*1), Y1
	VMOVUPS    (SI)(R9*2), Y2
	VMOVUPS    (SI)(R10*1), Y3
	VMOVUPS    (BX), Y4
	VMOVUPS    (BX)(R9*1), Y5
	VMOVUPS    (BX)(R9*2), Y6
	VMOVUPS    (BX)(R10*1), Y7
	VUNPCKLPS  Y1, Y0, Y8
	VUNPCKHPS  Y1, Y0, Y9
	VUNPCKLPS  Y3, Y2, Y10
	VUNPCKHPS  Y3, Y2, Y11
	VUNPCKLPS  Y5, Y4, Y12
	VUNPCKHPS  Y5, Y4, Y13
	VUNPCKLPS  Y7, Y6, Y14
	VUNPCKHPS  Y7, Y6, Y15
	VSHUFPS    $0x44, Y10, Y8, Y0  // rows 0-3 of columns 0 | 4
	VSHUFPS    $0xEE, Y10, Y8, Y1  // 1 | 5
	VSHUFPS    $0x44, Y11, Y9, Y2  // 2 | 6
	VSHUFPS    $0xEE, Y11, Y9, Y3  // 3 | 7
	VSHUFPS    $0x44, Y14, Y12, Y4 // rows 4-7 of columns 0 | 4
	VSHUFPS    $0xEE, Y14, Y12, Y5
	VSHUFPS    $0x44, Y15, Y13, Y6
	VSHUFPS    $0xEE, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	LEAQ       (DI)(R11*4), DX
	VMOVUPS    Y8, (DI)
	VMOVUPS    Y9, (DI)(R11*1)
	VMOVUPS    Y10, (DI)(R11*2)
	VMOVUPS    Y11, (DI)(R12*1)
	VMOVUPS    Y12, (DX)
	VMOVUPS    Y13, (DX)(R11*1)
	VMOVUPS    Y14, (DX)(R11*2)
	VMOVUPS    Y15, (DX)(R12*1)
	LEAQ       (SI)(R9*8), SI
	ADDQ       $32, DI
	SUBQ       $8, R13
	JMP        packrow8

packrow4:
	TESTQ        R13, R13
	JZ           packnext
	VMOVUPS      (SI), Y0
	VMOVUPS      (SI)(R9*1), Y1
	VMOVUPS      (SI)(R9*2), Y2
	VMOVUPS      (SI)(R10*1), Y3
	VUNPCKLPS    Y1, Y0, Y8
	VUNPCKHPS    Y1, Y0, Y9
	VUNPCKLPS    Y3, Y2, Y10
	VUNPCKHPS    Y3, Y2, Y11
	VSHUFPS      $0x44, Y10, Y8, Y0
	VSHUFPS      $0xEE, Y10, Y8, Y1
	VSHUFPS      $0x44, Y11, Y9, Y2
	VSHUFPS      $0xEE, Y11, Y9, Y3
	LEAQ         (DI)(R11*4), DX
	VMOVUPS      X0, (DI)
	VMOVUPS      X1, (DI)(R11*1)
	VMOVUPS      X2, (DI)(R11*2)
	VMOVUPS      X3, (DI)(R12*1)
	VEXTRACTF128 $1, Y0, (DX)
	VEXTRACTF128 $1, Y1, (DX)(R11*1)
	VEXTRACTF128 $1, Y2, (DX)(R11*2)
	VEXTRACTF128 $1, Y3, (DX)(R12*1)

packnext:
	ADDQ $32, AX
	LEAQ (R8)(R11*8), R8
	DECQ CX
	JNZ  packcol
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
