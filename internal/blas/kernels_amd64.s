//go:build amd64

#include "textflag.h"

// FMA micro-kernels behind the TallSkinny seam, in two widths: YMM (AVX2 +
// FMA) and ZMM (AVX-512F). Every multiply-add is one VFMADD231PS, rounded
// once, and every output element takes its terms in the one order that both
// widths and the Go twins in tallskinny.go share:
//
//	syrk   c += E + O: E chains the products of the even staged rows
//	       p = 0, 2, 4, … from zero, O those of the odd rows, each step
//	       acc = fma(ti[p], tj[p], acc)
//	gemm   c = a[0]·b[0] (one VMULPS), then c = fma(a[p], b[p], c) for
//	       p = 1 … k−1
//
// A correctly rounded multiply-add has exactly one result, so that order is
// the whole contract: a lane of any width, and fma32 in Go, give the same
// bits. The even/odd split is what gives a four-row syrk tile eight
// independent chains — enough to keep two FMA pipes busy past the
// instruction's four-cycle latency — and the gemm strips get theirs from two
// rows of four vectors each. The panel pack only moves values.
// Every routine ends VZEROUPPER; RET so the SSE code the Go compiler emits
// never pays the dirty-upper-half transition penalty; the ZMM routines use
// Z0–Z15 only, which VZEROUPPER clears.

// laneMasks8 is eight all-ones int32 lanes then eight zero lanes: the eight
// lanes at byte offset 32 − 4c have the first c lanes set (VMASKMOVPS).
DATA laneMasks8<>+0(SB)/8, $0xffffffffffffffff
DATA laneMasks8<>+8(SB)/8, $0xffffffffffffffff
DATA laneMasks8<>+16(SB)/8, $0xffffffffffffffff
DATA laneMasks8<>+24(SB)/8, $0xffffffffffffffff
DATA laneMasks8<>+32(SB)/8, $0
DATA laneMasks8<>+40(SB)/8, $0
DATA laneMasks8<>+48(SB)/8, $0
DATA laneMasks8<>+56(SB)/8, $0
GLOBL laneMasks8<>(SB), RODATA|NOPTR, $64

// laneMasks16[c] = 2^c − 1, c = 0 … 16: the opmask of a ZMM vector's first
// c lanes.
DATA laneMasks16<>+0(SB)/2, $0x0000
DATA laneMasks16<>+2(SB)/2, $0x0001
DATA laneMasks16<>+4(SB)/2, $0x0003
DATA laneMasks16<>+6(SB)/2, $0x0007
DATA laneMasks16<>+8(SB)/2, $0x000f
DATA laneMasks16<>+10(SB)/2, $0x001f
DATA laneMasks16<>+12(SB)/2, $0x003f
DATA laneMasks16<>+14(SB)/2, $0x007f
DATA laneMasks16<>+16(SB)/2, $0x00ff
DATA laneMasks16<>+18(SB)/2, $0x01ff
DATA laneMasks16<>+20(SB)/2, $0x03ff
DATA laneMasks16<>+22(SB)/2, $0x07ff
DATA laneMasks16<>+24(SB)/2, $0x0fff
DATA laneMasks16<>+26(SB)/2, $0x1fff
DATA laneMasks16<>+28(SB)/2, $0x3fff
DATA laneMasks16<>+30(SB)/2, $0x7fff
DATA laneMasks16<>+32(SB)/2, $0xffff
GLOBL laneMasks16<>(SB), RODATA|NOPTR, $34

// SYRKARGS loads a tile's arguments: DI = c, SI = ldc and R10 = m in
// bytes, R8 = ti, R9 = tj, CX = w.
#define SYRKARGS \
	MOVQ c+0(FP), DI; \
	MOVQ ldc+8(FP), SI; \
	MOVQ ti+16(FP), R8; \
	MOVQ tj+24(FP), R9; \
	MOVQ m+32(FP), R10; \
	MOVQ w+40(FP), CX; \
	SHLQ $2, SI; \
	SHLQ $2, R10

// SYRKSTEP adds one staged row's products into four accumulators: the
// row's eight (or four) tj values from tj+off, its four ti coefficients
// from ti+off broadcast. V is the tj register, B0–B3 the broadcasts.
#define SYRKSTEP(off, V, B0, B1, B2, B3, A0, A1, A2, A3) \
	VMOVUPS      (R9)(off*1), V; \
	VBROADCASTSS (R8)(off*1), B0; \
	VBROADCASTSS 4(R8)(off*1), B1; \
	VBROADCASTSS 8(R8)(off*1), B2; \
	VBROADCASTSS 12(R8)(off*1), B3; \
	VFMADD231PS  V, B0, A0; \
	VFMADD231PS  V, B1, A1; \
	VFMADD231PS  V, B2, A2; \
	VFMADD231PS  V, B3, A3

// SYRKSUM adds O into E, then E into the four rows of c: the closing sum
// of every tile width, on Z, Y or X registers.
#define SYRKSUM(E0, E1, E2, E3, O0, O1, O2, O3) \
	VADDPS  O0, E0, E0; \
	VADDPS  (DI), E0, E0; \
	VMOVUPS E0, (DI); \
	ADDQ    SI, DI; \
	VADDPS  O1, E1, E1; \
	VADDPS  (DI), E1, E1; \
	VMOVUPS E1, (DI); \
	ADDQ    SI, DI; \
	VADDPS  O2, E2, E2; \
	VADDPS  (DI), E2, E2; \
	VMOVUPS E2, (DI); \
	ADDQ    SI, DI; \
	VADDPS  O3, E3, E3; \
	VADDPS  (DI), E3, E3; \
	VMOVUPS E3, (DI)

// GEMMARGS loads a strip's arguments: DI = c0, SI = c1, R8 = a0, R9 = a1,
// R10 = b, R11 = ldb in bytes, R12 = k, CX = n.
#define GEMMARGS \
	MOVQ c0+0(FP), DI; \
	MOVQ c1+8(FP), SI; \
	MOVQ a0+16(FP), R8; \
	MOVQ a1+24(FP), R9; \
	MOVQ b+32(FP), R10; \
	MOVQ ldb+40(FP), R11; \
	MOVQ k+48(FP), R12; \
	MOVQ n+56(FP), CX; \
	SHLQ $2, R11

// ZMASK sets K to the lanes of the next vector that lie below n: with AX
// columns left from that vector on, the first min(AX, 16) lanes; AX then
// drops by 16, not below 0. R13 = 0, R14 = 16, R15 = laneMasks16.
#define ZMASK(K) \
	MOVQ    AX, BX; \
	CMPQ    BX, R14; \
	CMOVQGT R14, BX; \
	KMOVW   (R15)(BX*2), K; \
	SUBQ    R14, AX; \
	CMOVQLT R13, AX

// YMASK loads into Y the VMASKMOVPS mask of the next vector's lanes below
// n: with AX columns left from that vector on, the first min(AX, 8); AX
// then drops by 8, not below 0. R13 = 0, R14 = 8, R15 = laneMasks8+32.
#define YMASK(Y) \
	MOVQ    AX, BX; \
	CMPQ    BX, R14; \
	CMOVQGT R14, BX; \
	NEGQ    BX; \
	VMOVDQU (R15)(BX*4), Y; \
	SUBQ    R14, AX; \
	CMOVQLT R13, AX

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
//
// XCR0's low word; only called once CPUID has reported OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET

// func syrkTile4x16ZMM(c *float32, ldc int, ti, tj *float32, m, w int)
//
// c[x*ldc+y] += E + O for x < 4, y < 16, where E and O chain
// fma(ti[p*m+x], tj[p*m+y], ·) over the even and the odd staged rows p < w
// from zero. Z0–Z3 hold E for the four rows, Z4–Z7 O; each row's four
// coefficients are broadcast from memory into the FMA ({1to16}).
TEXT ·syrkTile4x16ZMM(SB), NOSPLIT, $0-48
	SYRKARGS
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	CMPQ   CX, $2
	JLT    t16odd

t16pair:
	VMOVUPS          (R9), Z8
	VMOVUPS          (R9)(R10*1), Z9
	VFMADD231PS.BCST (R8), Z8, Z0
	VFMADD231PS.BCST 4(R8), Z8, Z1
	VFMADD231PS.BCST 8(R8), Z8, Z2
	VFMADD231PS.BCST 12(R8), Z8, Z3
	VFMADD231PS.BCST (R8)(R10*1), Z9, Z4
	VFMADD231PS.BCST 4(R8)(R10*1), Z9, Z5
	VFMADD231PS.BCST 8(R8)(R10*1), Z9, Z6
	VFMADD231PS.BCST 12(R8)(R10*1), Z9, Z7
	LEAQ             (R8)(R10*2), R8
	LEAQ             (R9)(R10*2), R9
	SUBQ             $2, CX
	CMPQ             CX, $2
	JGE              t16pair

t16odd:
	TESTQ            CX, CX
	JZ               t16sum
	VMOVUPS          (R9), Z8
	VFMADD231PS.BCST (R8), Z8, Z0
	VFMADD231PS.BCST 4(R8), Z8, Z1
	VFMADD231PS.BCST 8(R8), Z8, Z2
	VFMADD231PS.BCST 12(R8), Z8, Z3

t16sum:
	SYRKSUM(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	VZEROUPPER
	RET

// func syrkTile4x8FMA(c *float32, ldc int, ti, tj *float32, m, w int)
//
// syrkTile4x16ZMM on eight columns, in YMM registers: Y0–Y3 hold E, Y4–Y7
// O, and the coefficients are broadcast by VBROADCASTSS (AVX2 has no
// broadcasting FMA operand). R11 is 0, SYRKSTEP's offset for the even row.
TEXT ·syrkTile4x8FMA(SB), NOSPLIT, $0-48
	SYRKARGS
	XORQ   R11, R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	CMPQ   CX, $2
	JLT    t8odd

t8pair:
	SYRKSTEP(R11, Y8, Y10, Y11, Y12, Y13, Y0, Y1, Y2, Y3)
	SYRKSTEP(R10, Y9, Y10, Y11, Y12, Y13, Y4, Y5, Y6, Y7)
	LEAQ (R8)(R10*2), R8
	LEAQ (R9)(R10*2), R9
	SUBQ $2, CX
	CMPQ CX, $2
	JGE  t8pair

t8odd:
	TESTQ CX, CX
	JZ    t8sum
	SYRKSTEP(R11, Y8, Y10, Y11, Y12, Y13, Y0, Y1, Y2, Y3)

t8sum:
	SYRKSUM(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VZEROUPPER
	RET

// func syrkTile4x4FMA(c *float32, ldc int, ti, tj *float32, m, w int)
//
// syrkTile4x8FMA on four columns, in XMM registers. It takes the blocks of
// a four-row band the wider tiles cannot reach.
TEXT ·syrkTile4x4FMA(SB), NOSPLIT, $0-48
	SYRKARGS
	XORQ   R11, R11
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7
	CMPQ   CX, $2
	JLT    t4odd

t4pair:
	SYRKSTEP(R11, X8, X10, X11, X12, X13, X0, X1, X2, X3)
	SYRKSTEP(R10, X9, X10, X11, X12, X13, X4, X5, X6, X7)
	LEAQ (R8)(R10*2), R8
	LEAQ (R9)(R10*2), R9
	SUBQ $2, CX
	CMPQ CX, $2
	JGE  t4pair

t4odd:
	TESTQ CX, CX
	JZ    t4sum
	SYRKSTEP(R11, X8, X10, X11, X12, X13, X0, X1, X2, X3)

t4sum:
	SYRKSUM(X0, X1, X2, X3, X4, X5, X6, X7)
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

// func gemmStrip2ZMM(c0, c1, a0, a1, b *float32, ldb, k, n int)
//
// Two output rows' strips over n ≥ 1 columns, k ≥ 1: c[j] = a[0]·b[j], then
// c[j] = fma(a[p], b[p*ldb+j], c[j]) for p = 1 … k−1, 64 columns at a time
// (Z0–Z3 row 0, Z4–Z7 row 1: eight chains down k). Every group runs
// under the opmasks K1–K4 of its four vectors, so the last group's columns
// past n are neither loaded nor stored. c1 may be c0 (with a1 = a0): both
// rows then compute and store the same bits.
TEXT ·gemmStrip2ZMM(SB), NOSPLIT, $0-64
	GEMMARGS
	LEAQ laneMasks16<>(SB), R15
	XORQ R13, R13
	MOVQ $16, R14

zgroup:
	MOVQ         CX, AX
	ZMASK(K1)
	ZMASK(K2)
	ZMASK(K3)
	ZMASK(K4)
	MOVQ         R10, BX
	VMOVUPS.Z    (BX), K1, Z8
	VMOVUPS.Z    64(BX), K2, Z9
	VMOVUPS.Z    128(BX), K3, Z10
	VMOVUPS.Z    192(BX), K4, Z11
	VBROADCASTSS (R8), Z12
	VBROADCASTSS (R9), Z13
	VMULPS       Z8, Z12, Z0
	VMULPS       Z9, Z12, Z1
	VMULPS       Z10, Z12, Z2
	VMULPS       Z11, Z12, Z3
	VMULPS       Z8, Z13, Z4
	VMULPS       Z9, Z13, Z5
	VMULPS       Z10, Z13, Z6
	VMULPS       Z11, Z13, Z7
	MOVQ         $1, DX

zstep:
	CMPQ         DX, R12
	JGE          zstore
	ADDQ         R11, BX
	VMOVUPS.Z    (BX), K1, Z8
	VMOVUPS.Z    64(BX), K2, Z9
	VMOVUPS.Z    128(BX), K3, Z10
	VMOVUPS.Z    192(BX), K4, Z11
	VBROADCASTSS (R8)(DX*4), Z12
	VBROADCASTSS (R9)(DX*4), Z13
	VFMADD231PS  Z8, Z12, Z0
	VFMADD231PS  Z9, Z12, Z1
	VFMADD231PS  Z10, Z12, Z2
	VFMADD231PS  Z11, Z12, Z3
	VFMADD231PS  Z8, Z13, Z4
	VFMADD231PS  Z9, Z13, Z5
	VFMADD231PS  Z10, Z13, Z6
	VFMADD231PS  Z11, Z13, Z7
	INCQ         DX
	JMP          zstep

zstore:
	VMOVUPS Z0, K1, (DI)
	VMOVUPS Z1, K2, 64(DI)
	VMOVUPS Z2, K3, 128(DI)
	VMOVUPS Z3, K4, 192(DI)
	VMOVUPS Z4, K1, (SI)
	VMOVUPS Z5, K2, 64(SI)
	VMOVUPS Z6, K3, 128(SI)
	VMOVUPS Z7, K4, 192(SI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	ADDQ    $256, R10
	SUBQ    $64, CX
	JG      zgroup
	VZEROUPPER
	RET

// func gemmStrip2FMA(c0, c1, a0, a1, b *float32, ldb, k, n int)
//
// gemmStrip2ZMM in YMM registers: 32 columns at a time unmasked (Y0–Y3
// row 0, Y4–Y7 row 1), then the last n%32 columns 16 at a time under the
// VMASKMOVPS masks Y14/Y15 (Y0, Y1 and Y4, Y5), since AVX2 has no opmasks
// and a masked load costs an ALU µop besides.
TEXT ·gemmStrip2FMA(SB), NOSPLIT, $0-64
	GEMMARGS

ygroup:
	CMPQ         CX, $32
	JLT          ytail
	MOVQ         R10, BX
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VMOVUPS      64(BX), Y10
	VMOVUPS      96(BX), Y11
	VBROADCASTSS (R8), Y12
	VBROADCASTSS (R9), Y13
	VMULPS       Y8, Y12, Y0
	VMULPS       Y9, Y12, Y1
	VMULPS       Y10, Y12, Y2
	VMULPS       Y11, Y12, Y3
	VMULPS       Y8, Y13, Y4
	VMULPS       Y9, Y13, Y5
	VMULPS       Y10, Y13, Y6
	VMULPS       Y11, Y13, Y7
	MOVQ         $1, DX

ystep:
	CMPQ         DX, R12
	JGE          ystore
	ADDQ         R11, BX
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VMOVUPS      64(BX), Y10
	VMOVUPS      96(BX), Y11
	VBROADCASTSS (R8)(DX*4), Y12
	VBROADCASTSS (R9)(DX*4), Y13
	VFMADD231PS  Y8, Y12, Y0
	VFMADD231PS  Y9, Y12, Y1
	VFMADD231PS  Y10, Y12, Y2
	VFMADD231PS  Y11, Y12, Y3
	VFMADD231PS  Y8, Y13, Y4
	VFMADD231PS  Y9, Y13, Y5
	VFMADD231PS  Y10, Y13, Y6
	VFMADD231PS  Y11, Y13, Y7
	INCQ         DX
	JMP          ystep

ystore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, (SI)
	VMOVUPS Y5, 32(SI)
	VMOVUPS Y6, 64(SI)
	VMOVUPS Y7, 96(SI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, R10
	SUBQ    $32, CX
	JMP     ygroup

ytail:
	LEAQ laneMasks8<>+32(SB), R15
	XORQ R13, R13
	MOVQ $8, R14

ytailgroup:
	TESTQ        CX, CX
	JLE          ydone
	MOVQ         CX, AX
	YMASK(Y14)
	YMASK(Y15)
	MOVQ         R10, BX
	VMASKMOVPS   (BX), Y14, Y8
	VMASKMOVPS   32(BX), Y15, Y9
	VBROADCASTSS (R8), Y12
	VBROADCASTSS (R9), Y13
	VMULPS       Y8, Y12, Y0
	VMULPS       Y9, Y12, Y1
	VMULPS       Y8, Y13, Y4
	VMULPS       Y9, Y13, Y5
	MOVQ         $1, DX

ytailstep:
	CMPQ         DX, R12
	JGE          ytailstore
	ADDQ         R11, BX
	VMASKMOVPS   (BX), Y14, Y8
	VMASKMOVPS   32(BX), Y15, Y9
	VBROADCASTSS (R8)(DX*4), Y12
	VBROADCASTSS (R9)(DX*4), Y13
	VFMADD231PS  Y8, Y12, Y0
	VFMADD231PS  Y9, Y12, Y1
	VFMADD231PS  Y8, Y13, Y4
	VFMADD231PS  Y9, Y13, Y5
	INCQ         DX
	JMP          ytailstep

ytailstore:
	VMASKMOVPS Y0, Y14, (DI)
	VMASKMOVPS Y1, Y15, 32(DI)
	VMASKMOVPS Y4, Y14, (SI)
	VMASKMOVPS Y5, Y15, 32(SI)
	ADDQ       $64, DI
	ADDQ       $64, SI
	ADDQ       $64, R10
	SUBQ       $16, CX
	JMP        ytailgroup

ydone:
	VZEROUPPER
	RET
