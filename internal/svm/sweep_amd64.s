//go:build amd64

#include "textflag.h"
#include "go_asm.h"

// The first-order SMO loop of one fold: step, the fused sweep eight
// float64 lanes at a time, and the convergence test, in one routine that
// returns when the fold is solved. It is pinned to the Go code in
// solver32.go and sweep.go bit for bit. The sweep widens the kernel rows
// with VCVTPS2PD and keeps VMULPD, VADDPD and VSUBPD separate — never FMA —
// in the Go expression's order; its running max/min select on `>=`/`<=`,
// so a later element replaces an equal earlier one as in the scalar scan,
// and never select a NaN, like Go's comparisons. step is scalar VDIVSD,
// VMULSD, VADDSD and VSUBSD with step's clamps behind VUCOMISD branches in
// step's order. The seed's class sums (classSumsAVX2, at the end) are
// the one other routine here.
//
// VEX only: between the first YMM write and VZEROUPPER every instruction
// must be VEX-encoded. A single legacy-SSE MOVQ CX, X11 in the prologue
// costs ~145 ns per call on the development host (the dirty-upper-half
// transition), more than a sweep. Hence constants come from memory by
// VBROADCASTSD and VMOVDQU, never through a general register, and all
// scalar arithmetic is the V-form.
//
// VUCOMISD b, a sets the flags of a ? b: JHI is a > b, JCC a ≥ b, JCS and
// JLS their negations, which an unordered pair also takes — so every
// branch below falls the way Go's comparison does on NaN.

// −Inf, +Inf, the float64 sign bit, tau, the lane indices of the first
// eight elements, and the index stride of an eight-wide step.
DATA sweepConst<>+0(SB)/8, $0xfff0000000000000
DATA sweepConst<>+8(SB)/8, $0x7ff0000000000000
DATA sweepConst<>+16(SB)/8, $0x8000000000000000
DATA sweepConst<>+24(SB)/8, $0x3d719799812dea11
DATA sweepConst<>+32(SB)/8, $0
DATA sweepConst<>+40(SB)/8, $1
DATA sweepConst<>+48(SB)/8, $2
DATA sweepConst<>+56(SB)/8, $3
DATA sweepConst<>+64(SB)/8, $4
DATA sweepConst<>+72(SB)/8, $5
DATA sweepConst<>+80(SB)/8, $6
DATA sweepConst<>+88(SB)/8, $7
DATA sweepConst<>+96(SB)/8, $8
GLOBL sweepConst<>(SB), RODATA|NOPTR, $104

// SCAN is sweep's loop body on the four elements at byte offsets ko into
// the kernel rows and vo into v, outUp and outLow, past element AX; idx
// holds their indices:
//
//	v[t] −= cyi·ki[t] + cyj·kj[t]
//	if v[t] >= maxv[lane] && outUp[t] == 0  { maxv[lane], maxi[lane] = v[t], t }
//	if v[t] <= minv[lane] && outLow[t] == 0 { minv[lane], mini[lane] = v[t], t }
//
// A sample outside the set becomes a NaN (v OR all ones). VMAXPD and
// VMINPD return their second source — the running value — when the first
// is a NaN, and the negated, unordered predicates NGE_UQ and NLE_UQ are
// then true, which ORs the index to −1; VPMAXSD keeps the running index
// over that, and takes t, the larger, when the element was selected. (An
// index is its low dword over a zero high dword, −1 both dwords.) Between
// zeros of either sign VMAXPD keeps the running one where `>=` takes the
// new one: the values are equal, and only comparisons read them.
#define SCAN(ko, vo, maxv, maxi, minv, mini, idx) \
	VCVTPS2PD ko(R8)(AX*4), Y6; \
	VCVTPS2PD ko(R9)(AX*4), Y7; \
	VMULPD    Y6, Y12, Y6; \
	VMULPD    Y7, Y13, Y7; \
	VADDPD    Y7, Y6, Y6; \
	VMOVUPD   vo(SI)(AX*8), Y7; \
	VSUBPD    Y6, Y7, Y7; \
	VMOVUPD   Y7, vo(SI)(AX*8); \
	VORPD     vo(R10)(AX*8), Y7, Y6; \
	VCMPPD    $0x19, maxv, Y6, Y8; \
	VMAXPD    maxv, Y6, maxv; \
	VPOR      idx, Y8, Y8; \
	VPMAXSD   Y8, maxi, maxi; \
	VORPD     vo(R11)(AX*8), Y7, Y6; \
	VCMPPD    $0x16, minv, Y6, Y8; \
	VMINPD    minv, Y6, minv; \
	VPOR      idx, Y8, Y8; \
	VPMAXSD   Y8, mini, mini

// MERGE folds scan state b into a, lane by lane: the better value (OP is
// VMAXPD and worse LT_OQ for the max, VMINPD and GT_OQ for the min), and
// the index of whichever side holds it — the larger index when both do.
// Each lane holds the last index at which its own extreme occurs, so what
// survives is the element a scalar scan in index order would have ended
// on; −1 marks a lane with no member, and loses every tie.
#define MERGE(OP, worse, av, ai, bv, bi, t0, t1) \
	VCMPPD  worse, bv, av, t0; \
	VCMPPD  worse, av, bv, t1; \
	OP      bv, av, av; \
	VPOR    ai, t0, t0; \
	VPOR    bi, t1, t1; \
	VPMAXSD t1, t0, ai

// sweepBody is sweep: DI = the solver, R12 = i, R13 = j, every lane of
// Y12 = cyi and of Y13 = cyj. It leaves the next pair in R12 and R13,
// both −1 when no pair violates by eps. It uses AX, BX, CX, SI, R8–R11
// and Y0–Y11, Y14, Y15; the first scan is Y0–Y3 (maxv, maxi, minv, mini)
// with its indices in Y4, the second Y9, Y10, Y11, Y14 with Y5.
TEXT sweepBody<>(SB), NOSPLIT, $0-0
	MOVQ         smo32_n(DI), CX
	MOVQ         smo32_kd(DI), R9
	MOVQ         R12, AX
	IMULQ        CX, AX
	LEAQ         (R9)(AX*4), R8         // ki = &kd[i·n]
	MOVQ         R13, AX
	IMULQ        CX, AX
	LEAQ         (R9)(AX*4), R9         // kj = &kd[j·n]
	MOVQ         smo32_v(DI), SI
	MOVQ         smo32_outUp(DI), R10
	MOVQ         smo32_outLow(DI), R11
	VBROADCASTSD sweepConst<>+0(SB), Y0
	VMOVAPD      Y0, Y9
	VBROADCASTSD sweepConst<>+8(SB), Y2
	VMOVAPD      Y2, Y11
	VPCMPEQQ     Y1, Y1, Y1
	VMOVDQA      Y1, Y3
	VMOVDQA      Y1, Y10
	VMOVDQA      Y1, Y14
	VMOVDQU      sweepConst<>+32(SB), Y4
	VMOVDQU      sweepConst<>+64(SB), Y5
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	JEQ          four
	VPBROADCASTQ sweepConst<>+96(SB), Y15

eight:
	SCAN(0, 0, Y0, Y1, Y2, Y3, Y4)
	SCAN(16, 32, Y9, Y10, Y11, Y14, Y5)
	VPADDQ Y15, Y4, Y4
	VPADDQ Y15, Y5, Y5
	ADDQ   $8, AX
	CMPQ   AX, BX
	JLT    eight

four:
	TESTQ $4, CX
	JEQ   reduce
	SCAN(0, 0, Y0, Y1, Y2, Y3, Y4)
	ADDQ  $4, AX

reduce:
	// Eight lanes to four, to two, to one: X0, X1 = gmax, imax and
	// X2, X3 = gmin, jmin in lane 0.
	MERGE(VMAXPD, $0x11, Y0, Y1, Y9, Y10, Y6, Y7)
	MERGE(VMINPD, $0x1e, Y2, Y3, Y11, Y14, Y5, Y8)
	VEXTRACTF128 $1, Y0, X9
	VEXTRACTI128 $1, Y1, X10
	VEXTRACTF128 $1, Y2, X11
	VEXTRACTI128 $1, Y3, X14
	MERGE(VMAXPD, $0x11, X0, X1, X9, X10, X6, X7)
	MERGE(VMINPD, $0x1e, X2, X3, X11, X14, X5, X8)
	VPERMILPD    $1, X0, X9
	VPSHUFD      $0x4e, X1, X10
	VPERMILPD    $1, X2, X11
	VPSHUFD      $0x4e, X3, X14
	MERGE(VMAXPD, $0x11, X0, X1, X9, X10, X6, X7)
	MERGE(VMINPD, $0x1e, X2, X3, X11, X14, X5, X8)
	VMOVQ        X1, R12
	VMOVQ        X3, R13

one:
	// The n mod 4 elements left, in index order from the reduced state.
	CMPQ      AX, CX
	JGE       test
	VCVTSS2SD (R8)(AX*4), X6, X6
	VCVTSS2SD (R9)(AX*4), X7, X7
	VMULSD    X6, X12, X6
	VMULSD    X7, X13, X7
	VADDSD    X7, X6, X6
	VMOVSD    (SI)(AX*8), X7
	VSUBSD    X6, X7, X7
	VMOVSD    X7, (SI)(AX*8)
	VUCOMISD  X0, X7                   // v ? gmax
	JCS       notup
	CMPQ      (R10)(AX*8), $0
	JNE       notup
	VMOVAPD   X7, X0
	MOVQ      AX, R12

notup:
	VUCOMISD X7, X2                    // gmin ? v
	JCS      notlow
	CMPQ     (R11)(AX*8), $0
	JNE      notlow
	VMOVAPD  X7, X2
	MOVQ     AX, R13

notlow:
	INCQ AX
	JMP  one

test:
	MOVQ     R12, AX
	ORQ      R13, AX
	JMI      none                      // I_up or I_low is empty
	VSUBSD   X2, X0, X6
	VMOVSD   smo32_eps(DI), X7
	VUCOMISD X6, X7                    // eps ? gmax − gmin
	JHI      none
	RET

none:
	MOVQ $-1, R12
	MOVQ $-1, R13
	RET

// func sweepOnceAVX2(s *smo32, i, j int, cyi, cyj float64) (ni, nj int, ok bool)
TEXT ·sweepOnceAVX2(SB), NOSPLIT, $0-57
	MOVQ         s+0(FP), DI
	MOVQ         i+8(FP), R12
	MOVQ         j+16(FP), R13
	VBROADCASTSD cyi+24(FP), Y12
	VBROADCASTSD cyj+32(FP), Y13
	CALL         sweepBody<>(SB)
	VZEROUPPER
	MOVQ         R12, ni+40(FP)
	MOVQ         R13, nj+48(FP)
	TESTQ        R12, R12
	SETPL        ok+56(FP)
	RET

// func solveAVX2(s *smo32, i, j, budget int) (done, ni, nj int, ok bool)
//
// R12, R13 = the working pair, DX = iterations done. One iteration is
// step — X0, X1 = yi, yj; X5, X6 = the old αi, αj; X7, X8 = the new;
// X9 = C; X15 = 0 — and, if α moved, sweepBody.
TEXT ·solveAVX2(SB), NOSPLIT, $0-57
	MOVQ s+0(FP), DI
	MOVQ i+8(FP), R12
	MOVQ j+16(FP), R13
	XORQ DX, DX

iterate:
	MOVQ      smo32_y(DI), BX
	VMOVSD    (BX)(R12*8), X0
	VMOVSD    (BX)(R13*8), X1
	MOVQ      smo32_qd(DI), BX
	VMOVSD    (BX)(R12*8), X2
	VADDSD    (BX)(R13*8), X2, X2      // K_ii + K_jj
	MOVQ      smo32_n(DI), AX
	IMULQ     R12, AX
	ADDQ      R13, AX
	MOVQ      smo32_kd(DI), BX
	VXORPD    X15, X15, X15
	VCVTSS2SD (BX)(AX*4), X15, X3
	VADDSD    X3, X3, X3               // 2·K_ij
	VSUBSD    X3, X2, X2               // quad
	VUCOMISD  X2, X15                  // 0 ? quad
	JCS       curved
	VMOVSD    sweepConst<>+24(SB), X2  // quad <= 0: tau

curved:
	MOVQ     smo32_v(DI), BX
	VMOVSD   (BX)(R12*8), X4
	VSUBSD   (BX)(R13*8), X4, X4
	VDIVSD   X2, X4, X4                // d = (v[i] − v[j]) / quad
	MOVQ     smo32_alpha(DI), BX
	VMOVSD   (BX)(R12*8), X5
	VMOVSD   (BX)(R13*8), X6
	VMULSD   X4, X0, X7
	VADDSD   X7, X5, X7                // αi + yi·d
	VMULSD   X4, X1, X8
	VSUBSD   X8, X6, X8                // αj − yj·d
	VMOVDDUP smo32_c(DI), X9
	VUCOMISD X0, X1
	JNE      opposite
	VADDSD   X6, X5, X10               // sum = old αi + old αj
	VUCOMISD X9, X10                   // sum ? C
	JHI      sumhigh
	VUCOMISD X8, X15                   // 0 ? αj
	JLS      sumlow2
	VMOVAPD  X15, X8
	VMOVAPD  X10, X7                   // αj = 0, αi = sum

sumlow2:
	VUCOMISD X7, X15                   // 0 ? αi
	JLS      clipped
	VMOVAPD  X15, X7
	VMOVAPD  X10, X8                   // αi = 0, αj = sum
	JMP      clipped

sumhigh:
	VUCOMISD X9, X7                    // αi ? C
	JLS      sumhigh2
	VMOVAPD  X9, X7
	VSUBSD   X9, X10, X8               // αi = C, αj = sum − C

sumhigh2:
	VUCOMISD X9, X8                    // αj ? C
	JLS      clipped
	VMOVAPD  X9, X8
	VSUBSD   X9, X10, X7               // αj = C, αi = sum − C
	JMP      clipped

opposite:
	VSUBSD   X6, X5, X10               // diff = old αi − old αj
	VUCOMISD X15, X10                  // diff ? 0
	JHI      diffpos
	VUCOMISD X7, X15                   // 0 ? αi
	JLS      diffneg2
	VMOVAPD  X15, X7
	VXORPD   sweepConst<>+16(SB), X10, X8 // αi = 0, αj = −diff

diffneg2:
	VUCOMISD X9, X8                    // αj ? C
	JLS      clipped
	VMOVAPD  X9, X8
	VADDSD   X10, X9, X7               // αj = C, αi = C + diff
	JMP      clipped

diffpos:
	VUCOMISD X8, X15                   // 0 ? αj
	JLS      diffpos2
	VMOVAPD  X15, X8
	VMOVAPD  X10, X7                   // αj = 0, αi = diff

diffpos2:
	VUCOMISD X9, X7                    // αi ? C
	JLS      clipped
	VMOVAPD  X9, X7
	VSUBSD   X10, X9, X8               // αi = C, αj = C − diff

clipped:
	// Store α, then both samples at once: the masks, Δα ≠ 0, and Δα·y.
	VMOVSD       X7, (BX)(R12*8)
	VMOVSD       X8, (BX)(R13*8)
	VUNPCKLPD    X8, X7, X7
	VUNPCKLPD    X6, X5, X5
	VUNPCKLPD    X1, X0, X0
	VCMPPD       $0x15, X9, X7, X2     // !(α < C)
	VCMPPD       $0x1a, X15, X7, X3    // !(α > 0)
	VBLENDVPD    X0, X3, X2, X4        // outUp:  y < 0 ? !(α > 0) : !(α < C)
	VBLENDVPD    X0, X2, X3, X3        // outLow: y < 0 ? !(α < C) : !(α > 0)
	MOVQ         smo32_outUp(DI), BX
	VMOVLPD      X4, (BX)(R12*8)
	VMOVHPD      X4, (BX)(R13*8)
	MOVQ         smo32_outLow(DI), BX
	VMOVLPD      X3, (BX)(R12*8)
	VMOVHPD      X3, (BX)(R13*8)
	VSUBPD       X5, X7, X7            // Δα
	VCMPPD       $0x04, X15, X7, X2    // NEQ_UQ: moved, as Go's != does on NaN
	VMOVMSKPD    X2, AX
	TESTQ        AX, AX
	JEQ          next
	VMULPD       X0, X7, X7            // cyi, cyj
	VBROADCASTSD X7, Y12
	VPERMPD      $0x55, Y7, Y13
	CALL         sweepBody<>(SB)

next:
	INCQ  DX
	TESTQ R12, R12
	JMI   exit
	CMPQ  DX, budget+24(FP)
	JLT   iterate

exit:
	VZEROUPPER
	MOVQ  DX, done+32(FP)
	MOVQ  R12, ni+40(FP)
	MOVQ  R13, nj+48(FP)
	TESTQ R12, R12
	SETPL ok+56(FP)
	RET

// CLASSROW adds the columns at R10 of the row rows[BX] names into the sums:
// four vectors of four into Y0–Y3 (CLASSROW16), one into Y0 (CLASSROW4),
// or one column into X0 (CLASSROW1). R11 is the row stride in bytes.
#define CLASSROW16 \
	MOVQ      (BX), AX; \
	IMULQ     R11, AX; \
	VCVTPS2PD (R10)(AX*1), Y4; \
	VCVTPS2PD 16(R10)(AX*1), Y5; \
	VCVTPS2PD 32(R10)(AX*1), Y6; \
	VCVTPS2PD 48(R10)(AX*1), Y7; \
	VADDPD    Y4, Y0, Y0; \
	VADDPD    Y5, Y1, Y1; \
	VADDPD    Y6, Y2, Y2; \
	VADDPD    Y7, Y3, Y3; \
	ADDQ      $8, BX

#define CLASSROW4 \
	MOVQ      (BX), AX; \
	IMULQ     R11, AX; \
	VCVTPS2PD (R10)(AX*1), Y4; \
	VADDPD    Y4, Y0, Y0; \
	ADDQ      $8, BX

#define CLASSROW1 \
	MOVQ      (BX), AX; \
	IMULQ     R11, AX; \
	VCVTSS2SD (R10)(AX*1), X4, X4; \
	VADDSD    X4, X0, X0; \
	ADDQ      $8, BX

// func classSumsAVX2(kd []float32, rows []int, np int, rp, rm []float64)
//
// classSums a block of columns at a time, the block's sum in registers:
// 16 columns in Y0–Y3, then 4 in Y0, then one in X0. For each block the
// rows of rows[:np] are widened by VCVTPS2PD (VCVTSS2SD for one column)
// and added by VADDPD (VADDSD) in list order into a sum that starts at +0,
// which is stored to rp; then the same for rows[np:] into rm.
//
// DX = the block's first column and R10 = its address in row 0; BX walks
// the list, R12 = where the class's rows end in it, SI = its sums (rm
// once the positive rows are done).
TEXT ·classSumsAVX2(SB), NOSPLIT, $0-104
	MOVQ kd_base+0(FP), R10
	MOVQ rows_base+24(FP), DI
	MOVQ rows_len+32(FP), CX
	MOVQ np+48(FP), AX
	MOVQ rp_base+56(FP), R8
	MOVQ rm_base+80(FP), R9
	LEAQ (DI)(AX*8), R13           // &rows[np]
	LEAQ (DI)(CX*8), R14           // &rows[n]
	LEAQ (CX*4), R11
	XORQ DX, DX

block16:
	LEAQ 16(DX), AX
	CMPQ AX, CX
	JGT  block4
	MOVQ DI, BX
	MOVQ R13, R12
	MOVQ R8, SI

class16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

rows16:
	CMPQ BX, R12
	JGE  sum16
	CLASSROW16
	JMP  rows16

sum16:
	VMOVUPD Y0, (SI)(DX*8)
	VMOVUPD Y1, 32(SI)(DX*8)
	VMOVUPD Y2, 64(SI)(DX*8)
	VMOVUPD Y3, 96(SI)(DX*8)
	CMPQ    SI, R9
	JEQ     next16
	MOVQ    R14, R12
	MOVQ    R9, SI
	JMP     class16

next16:
	ADDQ $16, DX
	ADDQ $64, R10
	JMP  block16

block4:
	LEAQ 4(DX), AX
	CMPQ AX, CX
	JGT  block1
	MOVQ DI, BX
	MOVQ R13, R12
	MOVQ R8, SI

class4:
	VXORPD Y0, Y0, Y0

rows4:
	CMPQ BX, R12
	JGE  sum4
	CLASSROW4
	JMP  rows4

sum4:
	VMOVUPD Y0, (SI)(DX*8)
	CMPQ    SI, R9
	JEQ     next4
	MOVQ    R14, R12
	MOVQ    R9, SI
	JMP     class4

next4:
	ADDQ $4, DX
	ADDQ $16, R10
	JMP  block4

block1:
	CMPQ DX, CX
	JGE  summed
	MOVQ DI, BX
	MOVQ R13, R12
	MOVQ R8, SI

class1:
	VXORPD X0, X0, X0

rows1:
	CMPQ BX, R12
	JGE  sum1
	CLASSROW1
	JMP  rows1

sum1:
	VMOVSD X0, (SI)(DX*8)
	CMPQ   SI, R9
	JEQ    next1
	MOVQ   R14, R12
	MOVQ   R9, SI
	JMP    class1

next1:
	INCQ DX
	ADDQ $4, R10
	JMP  block1

summed:
	VZEROUPPER
	RET
