//go:build amd64

#include "textflag.h"

// The fused first-order SMO sweep, four float64 lanes at a time. It is
// pinned to the Go loop in sweep.go bit for bit: VCVTPS2PD widens the
// kernel rows, VMULPD and VADDPD stay separate — never FMA — and follow
// the Go expression's order, and the running max/min use GE_OQ/LE_OQ so a
// later element replaces an equal earlier one, as `>=`/`<=` do in the
// scalar scan. Ordered, quiet predicates are false on NaN, like Go's
// comparisons.
//
// VEX only: between the first YMM write and VZEROUPPER every instruction
// must be VEX-encoded. A single legacy-SSE MOVQ CX, X11 in the prologue
// costs ~145 ns per call on the development host (the dirty-upper-half
// transition; n = 8: 23 → 168 ns, n = 80: 113 → 256 ns), more than the
// sweep itself. Hence constants come from memory by VBROADCASTSD and
// VMOVDQU, never through a general register.

// −Inf, +Inf, the float64 sign bit, the lane index stride, and the first
// vector's lane indices.
DATA sweepConst<>+0(SB)/8, $0xfff0000000000000
DATA sweepConst<>+8(SB)/8, $0x7ff0000000000000
DATA sweepConst<>+16(SB)/8, $0x8000000000000000
DATA sweepConst<>+24(SB)/8, $4
DATA sweepConst<>+32(SB)/8, $0
DATA sweepConst<>+40(SB)/8, $1
DATA sweepConst<>+48(SB)/8, $2
DATA sweepConst<>+56(SB)/8, $3
GLOBL sweepConst<>(SB), RODATA|NOPTR, $64

// func sweepAVX2(lanes *sweepLanes, grad, alpha, y *float64, ki, kj *float32, n int, cyi, cyj, c float64)
//
// For t < n, n a positive multiple of 4:
//
//	g[t] += y[t]·(cyi·ki[t] + cyj·kj[t])
//	v = −y[t]·g[t]
//	up  = y[t] < 0 ? α[t] > 0 : α[t] < c      low = the other one
//	if up  && v >= maxv[t%4] { maxv[t%4], maxi[t%4] = v, t }
//	if low && v <= minv[t%4] { minv[t%4], mini[t%4] = v, t }
//
// Y0..Y3 are maxv, maxi, minv, mini; Y4 the current lane indices.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-80
	MOVQ         lanes+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         alpha+16(FP), DX
	MOVQ         y+24(FP), BX
	MOVQ         ki+32(FP), R8
	MOVQ         kj+40(FP), R9
	MOVQ         n+48(FP), CX
	VBROADCASTSD cyi+56(FP), Y12
	VBROADCASTSD cyj+64(FP), Y13
	VBROADCASTSD c+72(FP), Y14
	VBROADCASTSD sweepConst<>+0(SB), Y0
	VPCMPEQQ     Y1, Y1, Y1
	VBROADCASTSD sweepConst<>+8(SB), Y2
	VMOVDQU      Y1, Y3
	VMOVDQU      sweepConst<>+32(SB), Y4
	VBROADCASTSD sweepConst<>+24(SB), Y5
	VXORPD       Y11, Y11, Y11
	VBROADCASTSD sweepConst<>+16(SB), Y15

sweepstep:
	VCVTPS2PD (R8), Y6
	VCVTPS2PD (R9), Y7
	VMULPD    Y6, Y12, Y6       // cyi·ki
	VMULPD    Y7, Y13, Y7       // cyj·kj
	VADDPD    Y7, Y6, Y6
	VMOVUPD   (BX), Y8          // y
	VMULPD    Y6, Y8, Y6        // y·(cyi·ki + cyj·kj)
	VMOVUPD   (SI), Y7
	VADDPD    Y6, Y7, Y7        // g + …
	VMOVUPD   Y7, (SI)
	VXORPD    Y15, Y8, Y9       // −y
	VMULPD    Y7, Y9, Y9        // v = −y·g
	VMOVUPD   (DX), Y10         // α
	VCMPPD    $0x11, Y14, Y10, Y6 // α < c   (LT_OQ)
	VCMPPD    $0x1e, Y11, Y10, Y7 // α > 0   (GT_OQ)
	VBLENDVPD Y8, Y7, Y6, Y10   // up:  y < 0 ? α > 0 : α < c
	VBLENDVPD Y8, Y6, Y7, Y6    // low: y < 0 ? α < c : α > 0
	VCMPPD    $0x1d, Y0, Y9, Y7 // v >= maxv (GE_OQ)
	VANDPD    Y10, Y7, Y7
	VBLENDVPD Y7, Y9, Y0, Y0
	VBLENDVPD Y7, Y4, Y1, Y1
	VCMPPD    $0x12, Y2, Y9, Y7 // v <= minv (LE_OQ)
	VANDPD    Y6, Y7, Y7
	VBLENDVPD Y7, Y9, Y2, Y2
	VBLENDVPD Y7, Y4, Y3, Y3
	VPADDQ    Y5, Y4, Y4
	ADDQ      $16, R8
	ADDQ      $16, R9
	ADDQ      $32, SI
	ADDQ      $32, DX
	ADDQ      $32, BX
	SUBQ      $4, CX
	JNZ       sweepstep

	VMOVUPD Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VZEROUPPER
	RET
