//go:build amd64

#include "textflag.h"

// (*Scratch).sweep in vector registers: fisherRow, eight coefficients per
// step (sixteen in fisherRowZMM), and the moments, column statistics and
// scaling, eight columns per panel. Each is pinned to the Go code in norm.go and scratch.go bit for
// bit: VMULPS/VADDPS/VSUBPS/VDIVPS and their PD forms stay separate — never
// FMA — and follow the Go expressions' association; VDIVPS, VDIVPD and
// VSQRTPD are correctly rounded, so they give the bits of the scalar
// DIVSS/DIVSD/SQRTSD; and every comparison is an ordered, quiet predicate
// (GE_OQ, LE_OQ), false on NaN like Go's `>=` and `<=`.
//
// VEX only: between the first YMM write and VZEROUPPER every instruction
// must be VEX-encoded, so constants come from memory, never through a
// general register (internal/svm/sweep_amd64.s has the measured penalty).

// Rows of fisherVec (sweep_amd64.go), 32 bytes each.
#define cFA6 ·fisherVec+0(SB)
#define cFA5 ·fisherVec+32(SB)
#define cFA4 ·fisherVec+64(SB)
#define cFA3 ·fisherVec+96(SB)
#define cFA2 ·fisherVec+128(SB)
#define cFA1 ·fisherVec+160(SB)
#define cFA0 ·fisherVec+192(SB)
#define cSPLIT2 ·fisherVec+224(SB)
#define cONE ·fisherVec+256(SB)
#define cCLAMPA ·fisherVec+288(SB)
#define cCLAMPZ ·fisherVec+320(SB)
#define cHALF ·fisherVec+352(SB)
#define cLN2LO ·fisherVec+384(SB)
#define cLN2HI ·fisherVec+416(SB)
#define cFL6 ·fisherVec+448(SB)
#define cFL5 ·fisherVec+480(SB)
#define cFL4 ·fisherVec+512(SB)
#define cFL3 ·fisherVec+544(SB)
#define cFL2 ·fisherVec+576(SB)
#define cFL1 ·fisherVec+608(SB)
#define cFL0 ·fisherVec+640(SB)
#define cSIGN ·fisherVec+672(SB)
#define cEXPBIAS ·fisherVec+704(SB)
#define c127 ·fisherVec+736(SB)
#define cMANT ·fisherVec+768(SB)
#define cSQRTHALF ·fisherVec+800(SB)
#define cEIGHT ·fisherVec+832(SB)

// laneIota is the sixteen lane indices of a ZMM vector, sixteen16 a
// broadcastable 16: fisherRowZMM's column vector and its step.
DATA laneIota<>+0(SB)/8, $0x0000000100000000
DATA laneIota<>+8(SB)/8, $0x0000000300000002
DATA laneIota<>+16(SB)/8, $0x0000000500000004
DATA laneIota<>+24(SB)/8, $0x0000000700000006
DATA laneIota<>+32(SB)/8, $0x0000000900000008
DATA laneIota<>+40(SB)/8, $0x0000000b0000000a
DATA laneIota<>+48(SB)/8, $0x0000000d0000000c
DATA laneIota<>+56(SB)/8, $0x0000000f0000000e
GLOBL laneIota<>(SB), RODATA|NOPTR, $64
DATA sixteen16<>+0(SB)/4, $16
GLOBL sixteen16<>(SB), RODATA|NOPTR, $4

// FISHERPOLY is the first pass's arithmetic on one vector of coefficients
// r, at either width: S = s = r·r, P = r + (r·s)·P(s) with P(s) in Horner
// form from fa6 … fa0 (A6 … A0), T scratch. r stays in R.
#define FISHERPOLY(R, S, P, T, A6, A5, A4, A3, A2, A1, A0) \
	VMULPS R, R, S; \
	VMULPS S, A6, P; \
	VADDPS A5, P, P; \
	VMULPS S, P, P; \
	VADDPS A4, P, P; \
	VMULPS S, P, P; \
	VADDPS A3, P, P; \
	VMULPS S, P, P; \
	VADDPS A2, P, P; \
	VMULPS S, P, P; \
	VADDPS A1, P, P; \
	VMULPS S, P, P; \
	VADDPS A0, P, P; \
	VMULPS S, R, T; \
	VMULPS P, T, T; \
	VADDPS T, R, P

// func fisherRowAVX2(row *float32, n int, tailR *float32, tailJ *int32)
//
// row[j] = FisherZ(row[j]) for j < n, n a positive multiple of 8, in
// fisherRow's two passes. The first gives all eight lanes of each vector
// the polynomial r + (r·s)·P(s) and files the lanes at s >= fisherSplit2:
// their r and their column, packed to the front of a vector by the
// packLanes permutation of the compare mask, are stored at the end of the
// lists, which then grow by the mask's population — so no branch depends on
// the data, as in Go. NaN fails the GE_OQ split and keeps the polynomial's
// NaN. The second pass runs fisherTail over the filed r eight at a time
// (the last vector's spare lanes hold stale coefficients; their results are
// never read), and a scalar loop puts the results back in their columns.
//
// Y9..Y15 hold fa6..fa0, Y7 eight 8s, Y8 the column of the vector's lane
// 0, eight times; R10 counts the coefficients filed.
TEXT ·fisherRowAVX2(SB), NOSPLIT, $0-32
	MOVQ    row+0(FP), DI
	MOVQ    n+8(FP), CX
	MOVQ    tailR+16(FP), R12
	MOVQ    tailJ+24(FP), R13
	LEAQ    ·packLanes(SB), R11
	VMOVUPS cFA6, Y9
	VMOVUPS cFA5, Y10
	VMOVUPS cFA4, Y11
	VMOVUPS cFA3, Y12
	VMOVUPS cFA2, Y13
	VMOVUPS cFA1, Y14
	VMOVUPS cFA0, Y15
	VMOVDQU cEIGHT, Y7
	VPXOR   Y8, Y8, Y8
	XORQ    R10, R10
	XORQ    R8, R8

smallstep:
	VMOVUPS   (DI)(R8*4), Y0         // r
	FISHERPOLY(Y0, Y1, Y2, Y3, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPS   Y2, (DI)(R8*4)
	VCMPPS    $0x1d, cSPLIT2, Y1, Y3 // s >= fisherSplit2 (GE_OQ)
	VMOVMSKPS Y3, AX
	SHLQ      $4, AX
	VPMOVZXBD (R11)(AX*1), Y4        // the lanes to file, first
	VPERMPS   Y0, Y4, Y5
	VMOVUPS   Y5, (R12)(R10*4)       // their r
	VPADDD    Y8, Y4, Y5
	VMOVDQU   Y5, (R13)(R10*4)       // their columns
	MOVBLZX   8(R11)(AX*1), AX
	ADDQ      AX, R10
	VPADDD    Y7, Y8, Y8
	ADDQ      $8, R8
	CMPQ      R8, CX
	JLT       smallstep
	TESTQ     R10, R10
	JZ        rowdone
	XORQ      R8, R8

	// fisherTail. Lanes outside its domain (a > 1 among the stale ones)
	// compute garbage; a >= clampA is blended over at the end.
tailstep:
	VMOVUPS   (R12)(R8*4), Y0
	VANDPS    cSIGN, Y0, Y4          // sign
	VXORPS    Y4, Y0, Y1             // a = |r|
	VMOVUPS   cONE, Y5
	VADDPS    Y1, Y5, Y6             // 1 + a
	VSUBPS    Y1, Y5, Y5             // 1 − a
	VDIVPS    Y5, Y6, Y6             // x = (1+a)/(1−a)
	VCMPPS    $0x1d, cCLAMPA, Y1, Y1 // a >= clampA (GE_OQ)
	VPADDD    cEXPBIAS, Y6, Y6       // ix = bits(x) + (oneBits − sqrtHalfBits)
	VPSRLD    $23, Y6, Y5            // ix >> 23, logical
	VPSUBD    c127, Y5, Y5
	VCVTDQ2PS Y5, Y5                 // k
	VPAND     cMANT, Y6, Y6
	VPADDD    cSQRTHALF, Y6, Y6
	VSUBPS    cONE, Y6, Y6           // f = m − 1
	VMULPS    Y6, Y6, Y7             // f2
	VMULPS    cFL6, Y7, Y0           // f2·fl6
	VMULPS    cFL5, Y6, Y8
	VADDPS    cFL4, Y8, Y8           // fl4 + fl5·f
	VADDPS    Y0, Y8, Y0
	VMULPS    Y0, Y7, Y0             // f2·((fl4+fl5·f) + f2·fl6)
	VMULPS    cFL3, Y6, Y8
	VADDPS    cFL2, Y8, Y8           // fl2 + fl3·f
	VADDPS    Y0, Y8, Y0
	VMULPS    Y0, Y7, Y0             // f2·((fl2+fl3·f) + …)
	VMULPS    cFL1, Y6, Y8
	VADDPS    cFL0, Y8, Y8           // fl0 + fl1·f
	VADDPS    Y0, Y8, Y0             // q
	VMULPS    Y6, Y7, Y8             // f2·f
	VMULPS    Y0, Y8, Y0             // (f2·f)·q
	VMULPS    cHALF, Y7, Y7          // 0.5·f2
	VMULPS    cLN2LO, Y5, Y8         // k·ln2Lo
	VSUBPS    Y7, Y8, Y8             // k·ln2Lo − 0.5·f2
	VADDPS    Y0, Y8, Y0             // … + (f2·f)·q
	VADDPS    Y0, Y6, Y0             // f + …
	VMULPS    cLN2HI, Y5, Y5         // k·ln2Hi
	VADDPS    Y0, Y5, Y0             // lg
	VMULPS    cHALF, Y0, Y0          // 0.5·lg
	VBLENDVPS Y1, cCLAMPZ, Y0, Y0    // a >= clampA: clampZ
	VORPS     Y4, Y0, Y0             // copy the sign back
	VMOVUPS   Y0, (R12)(R8*4)
	ADDQ      $8, R8
	CMPQ      R8, R10
	JLT       tailstep
	XORQ      R8, R8

putback:
	MOVL (R13)(R8*4), AX
	MOVL (R12)(R8*4), BX
	MOVL BX, (DI)(AX*4)
	INCQ R8
	CMPQ R8, R10
	JLT  putback

rowdone:
	VZEROUPPER
	RET

// func fisherRowZMM(row *float32, n int, tailR *float32, tailJ *int32)
//
// fisherRowAVX2 sixteen lanes at a time (AVX-512F), n a positive multiple
// of 8: the same operations per lane, in the same order, so the same bits.
// The last group, when n%16 = 8, runs under an opmask of its first eight
// lanes (K1); loads zero the lanes outside it and stores skip them. The
// first pass files the lanes at s >= fisherSplit2 with VCOMPRESSPS and
// VPCOMPRESSD (no lookup table) and counts them with POPCNT of the compare
// mask; the second runs fisherTail sixteen filed coefficients at a time
// under the opmask of the ones left (K3), with the constants broadcast
// from fisherVec's first lane ({1to16}) and the clamp merged in by a
// masked broadcast. EVEX-encoded throughout, so the VEX-only rule above
// holds.
//
// Z9..Z15 hold fa6..fa0, Z8 the columns of the group's lanes; R10 counts
// the coefficients filed.
TEXT ·fisherRowZMM(SB), NOSPLIT, $0-32
	MOVQ         row+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         tailR+16(FP), R12
	MOVQ         tailJ+24(FP), R13
	VBROADCASTSS cFA6, Z9
	VBROADCASTSS cFA5, Z10
	VBROADCASTSS cFA4, Z11
	VBROADCASTSS cFA3, Z12
	VBROADCASTSS cFA2, Z13
	VBROADCASTSS cFA1, Z14
	VBROADCASTSS cFA0, Z15
	VMOVDQU32    laneIota<>(SB), Z8
	MOVL         $0xff, BX
	XORQ         R10, R10
	XORQ         R8, R8

zsmallstep:
	MOVL             $0xffff, AX
	MOVQ             CX, DX
	SUBQ             R8, DX
	CMPQ             DX, $16
	CMOVLLT          BX, AX
	KMOVW            AX, K1
	VMOVUPS.Z        (DI)(R8*4), K1, Z0     // r
	FISHERPOLY(Z0, Z1, Z2, Z3, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	VMOVUPS          Z2, K1, (DI)(R8*4)
	VCMPPS.BCST      $0x1d, cSPLIT2, Z1, K1, K2 // s >= fisherSplit2 (GE_OQ), in the group
	VCOMPRESSPS      Z0, K2, Z5             // the lanes to file, first: their r
	VMOVUPS          Z5, K1, (R12)(R10*4)
	VPCOMPRESSD      Z8, K2, Z6             // their columns
	VMOVDQU32        Z6, K1, (R13)(R10*4)
	KMOVW            K2, AX
	POPCNTL          AX, AX
	ADDQ             AX, R10
	VPADDD.BCST      sixteen16<>(SB), Z8, Z8
	ADDQ             $16, R8
	CMPQ             R8, CX
	JLT              zsmallstep
	TESTQ            R10, R10
	JZ               zrowdone
	XORQ             R8, R8

	// fisherTail, as in fisherRowAVX2.
ztailstep:
	MOVQ             R10, CX
	SUBQ             R8, CX
	MOVL             $16, AX
	CMPQ             CX, AX
	CMOVQGT          AX, CX
	MOVL             $1, AX
	SHLL             CX, AX
	DECL             AX
	KMOVW            AX, K3
	VMOVUPS.Z        (R12)(R8*4), K3, Z0
	VPANDD.BCST      cSIGN, Z0, Z4          // sign
	VPXORD           Z4, Z0, Z1             // a = |r|
	VBROADCASTSS     cONE, Z5
	VADDPS           Z1, Z5, Z6             // 1 + a
	VSUBPS           Z1, Z5, Z5             // 1 − a
	VDIVPS           Z5, Z6, Z6             // x = (1+a)/(1−a)
	VCMPPS.BCST      $0x1d, cCLAMPA, Z1, K4 // a >= clampA (GE_OQ)
	VPADDD.BCST      cEXPBIAS, Z6, Z6       // ix = bits(x) + (oneBits − sqrtHalfBits)
	VPSRLD           $23, Z6, Z5            // ix >> 23, logical
	VPSUBD.BCST      c127, Z5, Z5
	VCVTDQ2PS        Z5, Z5                 // k
	VPANDD.BCST      cMANT, Z6, Z6
	VPADDD.BCST      cSQRTHALF, Z6, Z6
	VSUBPS.BCST      cONE, Z6, Z6           // f = m − 1
	VMULPS           Z6, Z6, Z7             // f2
	VMULPS.BCST      cFL6, Z7, Z0           // f2·fl6
	VMULPS.BCST      cFL5, Z6, Z8
	VADDPS.BCST      cFL4, Z8, Z8           // fl4 + fl5·f
	VADDPS           Z0, Z8, Z0
	VMULPS           Z0, Z7, Z0             // f2·((fl4+fl5·f) + f2·fl6)
	VMULPS.BCST      cFL3, Z6, Z8
	VADDPS.BCST      cFL2, Z8, Z8           // fl2 + fl3·f
	VADDPS           Z0, Z8, Z0
	VMULPS           Z0, Z7, Z0             // f2·((fl2+fl3·f) + …)
	VMULPS.BCST      cFL1, Z6, Z8
	VADDPS.BCST      cFL0, Z8, Z8           // fl0 + fl1·f
	VADDPS           Z0, Z8, Z0             // q
	VMULPS           Z6, Z7, Z8             // f2·f
	VMULPS           Z0, Z8, Z0             // (f2·f)·q
	VMULPS.BCST      cHALF, Z7, Z7          // 0.5·f2
	VMULPS.BCST      cLN2LO, Z5, Z8         // k·ln2Lo
	VSUBPS           Z7, Z8, Z8             // k·ln2Lo − 0.5·f2
	VADDPS           Z0, Z8, Z0             // … + (f2·f)·q
	VADDPS           Z0, Z6, Z0             // f + …
	VMULPS.BCST      cLN2HI, Z5, Z5         // k·ln2Hi
	VADDPS           Z0, Z5, Z0             // lg
	VMULPS.BCST      cHALF, Z0, Z0          // 0.5·lg
	VBROADCASTSS     cCLAMPZ, K4, Z0        // a >= clampA: clampZ
	VPORD            Z4, Z0, Z0             // copy the sign back
	VMOVUPS          Z0, K3, (R12)(R8*4)
	ADDQ             $16, R8
	CMPQ             R8, R10
	JLT              ztailstep
	XORQ             R8, R8

zputback:
	MOVL (R13)(R8*4), AX
	MOVL (R12)(R8*4), BX
	MOVL BX, (DI)(AX*4)
	INCQ R8
	CMPQ R8, R10
	JLT  zputback

zrowdone:
	VZEROUPPER
	RET

// COLUMNSTATS turns four columns' moments into their scaling: with the
// sums in sum and the sums of squares in sq,
//
//	mean = sum/rows;  variance = sq/rows − mean·mean;  inv = 1/√variance
//
// and it leaves float32(inv) in xscale and float32(mean·inv) in xshift,
// both zero where variance <= 0: an LE_OQ mask cleared out of the float64
// values before they narrow, so a NaN variance is not reset, as in Go.
// Y15 holds rows, Y14 ones, Y13 zeros; Y4 is scratch.
#define COLUMNSTATS(sum, sq, xshift, xscale) \
	VDIVPD     Y15, sum, sum; \
	VDIVPD     Y15, sq, sq; \
	VMULPD     sum, sum, Y4; \
	VSUBPD     Y4, sq, sq; \
	VCMPPD     $0x12, Y13, sq, Y4; \
	VSQRTPD    sq, sq; \
	VDIVPD     sq, Y14, sq; \
	VMULPD     sq, sum, sum; \
	VANDNPD    sq, Y4, sq; \
	VANDNPD    sum, Y4, sum; \
	VCVTPD2PSY sq, xscale; \
	VCVTPD2PSY sum, xshift

// func zscorePanelsAVX2(dst *float32, dstStride int, src *float32, srcStride int, rows, n int)
//
// Columns [0, n), n a positive multiple of 8, in panels of eight. A panel
// walks its rows twice. First the moments, in registers:
//
//	f = float64(src[i·srcStride+j]);  sum[j] += f;  sumSq[j] += f·f
//
// for i = 0 … rows−1 in that order, from zero, as the Go loop adds them.
// Then, past COLUMNSTATS,
//
//	dst[i·dstStride+j] = src[i·srcStride+j]·scale[j] − shift[j]
//
// Each element is read before it is written, so dst may be src. Y0/Y1
// hold the panel's sums, Y2/Y3 its sums of squares, low and high four
// columns, then Y0 its shift and Y2 its scale.
TEXT ·zscorePanelsAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         dstStride+8(FP), R10
	MOVQ         src+16(FP), SI
	MOVQ         srcStride+24(FP), R11
	MOVQ         rows+32(FP), R12
	MOVQ         n+40(FP), CX
	SHLQ         $2, R10
	SHLQ         $2, R11
	VCVTSI2SDQ   R12, X15, X15
	VBROADCASTSD X15, Y15
	VCVTPS2PD    cONE, Y14
	VXORPD       Y13, Y13, Y13

panel:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R8
	MOVQ   R12, AX

momentsrow:
	VCVTPS2PD (R8), Y5
	VCVTPS2PD 16(R8), Y6
	VADDPD    Y5, Y0, Y0
	VADDPD    Y6, Y1, Y1
	VMULPD    Y5, Y5, Y5
	VMULPD    Y6, Y6, Y6
	VADDPD    Y5, Y2, Y2
	VADDPD    Y6, Y3, Y3
	ADDQ      R11, R8
	DECQ      AX
	JNZ       momentsrow
	COLUMNSTATS(Y0, Y2, X0, X2)
	COLUMNSTATS(Y1, Y3, X1, X3)
	VINSERTF128 $1, X1, Y0, Y0
	VINSERTF128 $1, X3, Y2, Y2
	MOVQ        SI, R8
	MOVQ        DI, R9
	MOVQ        R12, AX

scalerow:
	VMOVUPS (R8), Y4
	VMULPS  Y2, Y4, Y4
	VSUBPS  Y0, Y4, Y4
	VMOVUPS Y4, (R9)
	ADDQ    R11, R8
	ADDQ    R10, R9
	DECQ    AX
	JNZ     scalerow
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     panel
	VZEROUPPER
	RET
