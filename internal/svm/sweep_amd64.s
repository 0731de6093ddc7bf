//go:build amd64

#include "textflag.h"
#include "go_asm.h"

// The first-order SMO loop of one fold: step, the fused sweep sixteen
// float32 elements at a time in two eight-lane scans, and the convergence
// test, in one routine that returns when the fold is solved. It is pinned
// to the Go code in solver32.go and sweep.go bit for bit. The sweep keeps
// VMULPS, VADDPS and VSUBPS separate — never FMA — in the Go expression's
// order; its running max/min select on `>=`/`<=`, so a later element
// replaces an equal earlier one as in the scalar scan, and never select a
// NaN, like Go's comparisons. step is scalar float64 — VCVTSS2SD of v[i]
// and v[j], VDIVSD, VMULSD, VADDSD and VSUBSD with step's clamps behind
// VUCOMISD branches in step's order — and rounds the two coefficients it
// hands the sweep to float32 with one VCVTPD2PS. After it come the seed's
// class sums (classSumsAVX2), the conjugate-gradient phase's mat-vec
// (matvecBody, whose ZMM loops are EVEX) and its float64 passes, and
// decide's pass over a fold's test samples.
//
// VEX only: between the first YMM write and VZEROUPPER every instruction
// must be VEX-encoded (or EVEX). A single legacy-SSE MOVQ CX, X11 in the prologue
// costs ~145 ns per call on the development host (the dirty-upper-half
// transition), more than a sweep. Hence constants come from memory by
// VBROADCASTSS and VMOVDQU, never through a general register, and all
// scalar arithmetic is the V-form.
//
// VUCOMISD b, a (VUCOMISS) sets the flags of a ? b: JHI is a > b, JCC
// a ≥ b, JCS and JLS their negations, which an unordered pair also takes —
// so every branch below falls the way Go's comparison does on NaN.

// float32 −Inf and +Inf, the index strides of a sixteen- and an
// eight-wide step, the float64 sign bit and tau, then the lane indices of
// the first eight elements as dwords.
DATA sweepConst<>+0(SB)/4, $0xff800000
DATA sweepConst<>+4(SB)/4, $0x7f800000
DATA sweepConst<>+8(SB)/4, $16
DATA sweepConst<>+12(SB)/4, $8
DATA sweepConst<>+16(SB)/8, $0x8000000000000000
DATA sweepConst<>+24(SB)/8, $0x3d719799812dea11
DATA sweepConst<>+32(SB)/4, $0
DATA sweepConst<>+36(SB)/4, $1
DATA sweepConst<>+40(SB)/4, $2
DATA sweepConst<>+44(SB)/4, $3
DATA sweepConst<>+48(SB)/4, $4
DATA sweepConst<>+52(SB)/4, $5
DATA sweepConst<>+56(SB)/4, $6
DATA sweepConst<>+60(SB)/4, $7
GLOBL sweepConst<>(SB), RODATA|NOPTR, $64

// SCAN is sweep's loop body on the eight elements at byte offset off into
// the kernel rows, v, outUp and outLow, past element AX; idx holds their
// indices. UPDATE is its first half, PICK its second:
//
//	v[t] −= cyi·ki[t] + cyj·kj[t]
//	if v[t] >= maxv[lane] && outUp[t] == 0  { maxv[lane], maxi[lane] = v[t], t }
//	if v[t] <= minv[lane] && outLow[t] == 0 { minv[lane], mini[lane] = v[t], t }
//
// A sample outside the set becomes a NaN (v OR all ones). VMAXPS and
// VMINPS return their second source — the running value — when the first
// is a NaN, and the negated, unordered predicates NGE_UQ and NLE_UQ are
// then true, which ORs the index to −1; VPMAXSD keeps the running index
// over that, and takes t, the larger, when the element was selected.
// Between zeros of either sign VMAXPS keeps the running one where `>=`
// takes the new one: the values are equal, and only comparisons read them.
// PICK alone, on v as it is, is selectFirstOrder's scan.
#define UPDATE(off) \
	VMULPS  off(R8)(AX*4), Y12, Y6; \
	VMULPS  off(R9)(AX*4), Y13, Y7; \
	VADDPS  Y7, Y6, Y6; \
	VMOVUPS off(SI)(AX*4), Y7; \
	VSUBPS  Y6, Y7, Y7; \
	VMOVUPS Y7, off(SI)(AX*4)

#define PICK(off, maxv, maxi, minv, mini, idx) \
	VORPS   off(R10)(AX*4), Y7, Y6; \
	VCMPPS  $0x19, maxv, Y6, Y8; \
	VMAXPS  maxv, Y6, maxv; \
	VPOR    idx, Y8, Y8; \
	VPMAXSD Y8, maxi, maxi; \
	VORPS   off(R11)(AX*4), Y7, Y6; \
	VCMPPS  $0x16, minv, Y6, Y8; \
	VMINPS  minv, Y6, minv; \
	VPOR    idx, Y8, Y8; \
	VPMAXSD Y8, mini, mini

#define SCAN(off, maxv, maxi, minv, mini, idx) \
	UPDATE(off); \
	PICK(off, maxv, maxi, minv, mini, idx)

#define SELECT(off, maxv, maxi, minv, mini, idx) \
	VMOVUPS off(SI)(AX*4), Y7; \
	PICK(off, maxv, maxi, minv, mini, idx)

// MERGE folds scan state b into a, lane by lane: the better value (OP is
// VMAXPS and worse LT_OQ for the max, VMINPS and GT_OQ for the min), and
// the index of whichever side holds it — the larger index when both do.
// Each lane holds the last index at which its own extreme occurs, so what
// survives is the element a scalar scan in index order would have ended
// on; −1 marks a lane with no member, and loses every tie.
#define MERGE(OP, worse, av, ai, bv, bi, t0, t1) \
	VCMPPS  worse, bv, av, t0; \
	VCMPPS  worse, av, bv, t1; \
	OP      bv, av, av; \
	VPOR    ai, t0, t0; \
	VPOR    bi, t1, t1; \
	VPMAXSD t1, t0, ai

// sweepBody is sweep: DI = the solver, R12 = i, R13 = j, every lane of
// Y12 = cyi and of Y13 = cyj. It leaves the next pair in R12 and R13,
// both −1 when no pair violates by eps. It uses AX, BX, CX, SI, R8–R11
// and Y0–Y11, Y14, Y15; the first scan is Y0–Y3 (maxv, maxi, minv, mini)
// with its indices in Y4, the second Y9, Y10, Y11, Y14 with Y5. With
// R14 ≠ 0 it updates nothing and is selectFirstOrder (i and j unused).
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
	VBROADCASTSS sweepConst<>+0(SB), Y0
	VMOVAPS      Y0, Y9
	VBROADCASTSS sweepConst<>+4(SB), Y2
	VMOVAPS      Y2, Y11
	VPCMPEQD     Y1, Y1, Y1
	VMOVDQA      Y1, Y3
	VMOVDQA      Y1, Y10
	VMOVDQA      Y1, Y14
	VMOVDQU      sweepConst<>+32(SB), Y4
	VPBROADCASTD sweepConst<>+12(SB), Y5
	VPADDD       Y4, Y5, Y5
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-16, BX
	VPBROADCASTD sweepConst<>+8(SB), Y15
	TESTQ        R14, R14
	JNE          selects
	TESTQ        BX, BX
	JEQ          eight

sixteen:
	SCAN(0, Y0, Y1, Y2, Y3, Y4)
	SCAN(32, Y9, Y10, Y11, Y14, Y5)
	VPADDD Y15, Y4, Y4
	VPADDD Y15, Y5, Y5
	ADDQ   $16, AX
	CMPQ   AX, BX
	JLT    sixteen

eight:
	TESTQ $8, CX
	JEQ   reduce
	SCAN(0, Y0, Y1, Y2, Y3, Y4)
	ADDQ  $8, AX
	JMP   reduce

selects:
	TESTQ BX, BX
	JEQ   selecteight

selectsixteen:
	SELECT(0, Y0, Y1, Y2, Y3, Y4)
	SELECT(32, Y9, Y10, Y11, Y14, Y5)
	VPADDD Y15, Y4, Y4
	VPADDD Y15, Y5, Y5
	ADDQ   $16, AX
	CMPQ   AX, BX
	JLT    selectsixteen

selecteight:
	TESTQ $8, CX
	JEQ   reduce
	SELECT(0, Y0, Y1, Y2, Y3, Y4)
	ADDQ  $8, AX

reduce:
	// Eight lanes to four, to two, to one: X0, X1 = gmax, imax and
	// X2, X3 = gmin, jmin in lane 0.
	MERGE(VMAXPS, $0x11, Y0, Y1, Y9, Y10, Y6, Y7)
	MERGE(VMINPS, $0x1e, Y2, Y3, Y11, Y14, Y5, Y8)
	VEXTRACTF128 $1, Y0, X9
	VEXTRACTI128 $1, Y1, X10
	VEXTRACTF128 $1, Y2, X11
	VEXTRACTI128 $1, Y3, X14
	MERGE(VMAXPS, $0x11, X0, X1, X9, X10, X6, X7)
	MERGE(VMINPS, $0x1e, X2, X3, X11, X14, X5, X8)
	VPERMILPS    $0x4e, X0, X9
	VPSHUFD      $0x4e, X1, X10
	VPERMILPS    $0x4e, X2, X11
	VPSHUFD      $0x4e, X3, X14
	MERGE(VMAXPS, $0x11, X0, X1, X9, X10, X6, X7)
	MERGE(VMINPS, $0x1e, X2, X3, X11, X14, X5, X8)
	VPERMILPS    $0xb1, X0, X9
	VPSHUFD      $0xb1, X1, X10
	VPERMILPS    $0xb1, X2, X11
	VPSHUFD      $0xb1, X3, X14
	MERGE(VMAXPS, $0x11, X0, X1, X9, X10, X6, X7)
	MERGE(VMINPS, $0x1e, X2, X3, X11, X14, X5, X8)
	VMOVD        X1, R12
	MOVLQSX      R12, R12
	VMOVD        X3, R13
	MOVLQSX      R13, R13

one:
	// The n mod 8 elements left, in index order from the reduced state.
	CMPQ     AX, CX
	JGE      test
	VMOVSS   (SI)(AX*4), X7
	TESTQ    R14, R14
	JNE      picked
	VMULSS   (R8)(AX*4), X12, X6
	VMULSS   (R9)(AX*4), X13, X8
	VADDSS   X8, X6, X6
	VSUBSS   X6, X7, X7
	VMOVSS   X7, (SI)(AX*4)

picked:
	VUCOMISS X0, X7                    // v ? gmax
	JCS      notup
	CMPL     (R10)(AX*4), $0
	JNE      notup
	VMOVAPS  X7, X0
	MOVQ     AX, R12

notup:
	VUCOMISS X7, X2                    // gmin ? v
	JCS      notlow
	CMPL     (R11)(AX*4), $0
	JNE      notlow
	VMOVAPS  X7, X2
	MOVQ     AX, R13

notlow:
	INCQ AX
	JMP  one

test:
	MOVQ      R12, AX
	ORQ       R13, AX
	JMI       none                      // I_up or I_low is empty
	VCVTSS2SD X0, X0, X6
	VCVTSS2SD X2, X2, X7
	VSUBSD    X7, X6, X6
	VMOVSD    smo32_eps(DI), X7
	VUCOMISD  X6, X7                    // eps ? gmax − gmin
	JHI       none
	RET

none:
	MOVQ $-1, R12
	MOVQ $-1, R13
	RET

// func sweepOnceAVX2(s *smo32, i, j int, cyi, cyj float32) (ni, nj int, ok bool)
TEXT ·sweepOnceAVX2(SB), NOSPLIT, $0-49
	MOVQ         s+0(FP), DI
	XORQ         R14, R14
	MOVQ         i+8(FP), R12
	MOVQ         j+16(FP), R13
	VBROADCASTSS cyi+24(FP), Y12
	VBROADCASTSS cyj+28(FP), Y13
	CALL         sweepBody<>(SB)
	VZEROUPPER
	MOVQ         R12, ni+32(FP)
	MOVQ         R13, nj+40(FP)
	TESTQ        R12, R12
	SETPL        ok+48(FP)
	RET

// func selectAVX2(s *smo32) (i, j int, ok bool)
TEXT ·selectAVX2(SB), NOSPLIT, $0-25
	MOVQ  s+0(FP), DI
	MOVQ  $1, R14
	CALL  sweepBody<>(SB)
	VZEROUPPER
	MOVQ  R12, i+8(FP)
	MOVQ  R13, j+16(FP)
	TESTQ R12, R12
	SETPL ok+24(FP)
	RET

// func solveAVX2(s *smo32, i, j, budget int) (done, ni, nj int, ok bool)
//
// R12, R13 = the working pair, DX = iterations done. One iteration is
// step — X0, X1 = yi, yj; X5, X6 = the old αi, αj; X7, X8 = the new;
// X9 = C; X15 = 0 — and, if α moved, sweepBody.
TEXT ·solveAVX2(SB), NOSPLIT, $0-57
	MOVQ s+0(FP), DI
	XORQ R14, R14
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
	MOVQ      smo32_v(DI), BX
	VCVTSS2SD (BX)(R12*4), X15, X4
	VCVTSS2SD (BX)(R13*4), X15, X3
	VSUBSD    X3, X4, X4
	VDIVSD    X2, X4, X4               // d = (v[i] − v[j]) / quad
	MOVQ      smo32_alpha(DI), BX
	VMOVSD    (BX)(R12*8), X5
	VMOVSD    (BX)(R13*8), X6
	VMULSD    X4, X0, X7
	VADDSD    X7, X5, X7               // αi + yi·d
	VMULSD    X4, X1, X8
	VSUBSD    X8, X6, X8               // αj − yj·d
	VMOVDDUP  smo32_c(DI), X9
	VUCOMISD  X0, X1
	JNE       opposite
	VADDSD    X6, X5, X10              // sum = old αi + old αj
	VUCOMISD  X9, X10                  // sum ? C
	JHI       sumhigh
	VUCOMISD  X8, X15                  // 0 ? αj
	JLS       sumlow2
	VMOVAPD   X15, X8
	VMOVAPD   X10, X7                  // αj = 0, αi = sum

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
	// Store α, then both samples at once: the masks (the low dword of
	// each float64 compare), Δα ≠ 0, and Δα·y rounded to float32.
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
	VMOVSS       X4, (BX)(R12*4)
	VEXTRACTPS   $2, X4, (BX)(R13*4)
	MOVQ         smo32_outLow(DI), BX
	VMOVSS       X3, (BX)(R12*4)
	VEXTRACTPS   $2, X3, (BX)(R13*4)
	VSUBPD       X5, X7, X7            // Δα
	VCMPPD       $0x04, X15, X7, X2    // NEQ_UQ: moved, as Go's != does on NaN
	VMOVMSKPD    X2, AX
	TESTQ        AX, AX
	JEQ          next
	VMULPD       X0, X7, X7            // Δα·y
	VCVTPD2PSX   X7, X7                // cyi, cyj
	VBROADCASTSS X7, Y12
	VMOVSHDUP    X7, X7
	VBROADCASTSS X7, Y13
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

// matvecMask is eight all-ones dwords then eight zero ones: the eight at
// byte offset 32 − 4r have the first r lanes set, the VMASKMOVPS mask of
// a vector's first r columns.
DATA matvecMask<>+0(SB)/8, $0xffffffffffffffff
DATA matvecMask<>+8(SB)/8, $0xffffffffffffffff
DATA matvecMask<>+16(SB)/8, $0xffffffffffffffff
DATA matvecMask<>+24(SB)/8, $0xffffffffffffffff
DATA matvecMask<>+32(SB)/8, $0
DATA matvecMask<>+40(SB)/8, $0
DATA matvecMask<>+48(SB)/8, $0
DATA matvecMask<>+56(SB)/8, $0
GLOBL matvecMask<>(SB), RODATA|NOPTR, $64

// laneMasks<> is the opmask of a vector's first r lanes at word r, r ≤ 16.
DATA laneMasks<>+0(SB)/8, $0x0007000300010000
DATA laneMasks<>+8(SB)/8, $0x007f003f001f000f
DATA laneMasks<>+16(SB)/8, $0x07ff03ff01ff00ff
DATA laneMasks<>+24(SB)/8, $0x7fff3fff1fff0fff
DATA laneMasks<>+32(SB)/2, $0xffff
GLOBL laneMasks<>(SB), RODATA|NOPTR, $34

// A band is six vectors of q's columns, which stay in registers while
// every listed row streams past: 96 columns in Z0–Z5 under the opmasks
// K1–K6, 48 in Y0–Y5 under the VMASKMOVPS masks Y6–Y11. BANDMASK sets a
// vector's mask from AX, the columns left in the band (it consumes them),
// with DX = the vector's width and R14 = 0.
#define ZBANDMASK(K) \
	MOVQ    AX, BX; \
	CMPQ    BX, DX; \
	CMOVQGT DX, BX; \
	KMOVW   (R15)(BX*2), K; \
	SUBQ    DX, AX; \
	CMOVQLT R14, AX

#define YBANDMASK(Y) \
	MOVQ    AX, BX; \
	CMPQ    BX, DX; \
	CMOVQGT DX, BX; \
	NEGQ    BX; \
	VMOVDQU 32(R15)(BX*4), Y; \
	SUBQ    DX, AX; \
	CMOVQLT R14, AX

// ZHEAD (YROW's first half) starts one row of the band: AX = the row's
// index in the list; Z12 (Y12) = x[row], AX = the row's band. ZP adds one
// vector's products into its accumulator; Z13 (Y13) is scratch. A
// masked-off lane is never read.
#define ZHEAD \
	MOVQ         (BX), AX; \
	VBROADCASTSS (R10)(AX*4), Z12; \
	IMULQ        R11, AX; \
	ADDQ         R14, AX

#define ZP(off, K, acc) \
	VMULPS.Z off(AX), Z12, K, Z13; \
	VADDPS   Z13, acc, acc

#define YPRODUCT(off, mask, acc) \
	VMASKMOVPS off(AX), mask, Y13; \
	VMULPS     Y13, Y12, Y13; \
	VADDPS     Y13, acc, acc

#define YROW \
	VBROADCASTSS (R10)(AX*4), Y12; \
	IMULQ        R11, AX; \
	ADDQ         R14, AX; \
	YPRODUCT(0, Y6, Y0); \
	YPRODUCT(32, Y7, Y1); \
	YPRODUCT(64, Y8, Y2); \
	YPRODUCT(96, Y9, Y3); \
	YPRODUCT(128, Y10, Y4); \
	YPRODUCT(160, Y11, Y5)

// matvecBody is matvecGo with q in registers: for each band of columns,
// q = +0, then every listed row in list order adds its products x[row]·K
// (VMULPS, then VADDPS: the Go loop's per-element order), and the band is
// stored once. A ZMM band's rows run a loop over its live vectors only.
// R8 = kd, R9 = the list, R12 = its end, R10 = x, SI = q, CX = n, DX = the
// kernel path (ZMM bands at 16). It uses AX, BX, DX, R11, R13–R15,
// Y0–Y13 (Z0–Z13 and K1–K6 on ZMM) and leaves DI alone.
TEXT matvecBody<>(SB), NOSPLIT, $0-0
	LEAQ (CX*4), R11
	LEAQ laneMasks<>(SB), R15
	XORQ R13, R13              // the band's first column
	CMPQ DX, $16
	JNE  yband

zband:
	CMPQ      R13, CX
	JGE       banded
	MOVQ      CX, AX
	SUBQ      R13, AX
	MOVL      $16, DX
	XORL      R14, R14
	ZBANDMASK(K1)
	ZBANDMASK(K2)
	ZBANDMASK(K3)
	ZBANDMASK(K4)
	ZBANDMASK(K5)
	ZBANDMASK(K6)
	LEAQ      (R8)(R13*4), R14 // &kd[0][band]
	VXORPS    Z0, Z0, Z0
	VXORPS    Z1, Z1, Z1
	VXORPS    Z2, Z2, Z2
	VXORPS    Z3, Z3, Z3
	VXORPS    Z4, Z4, Z4
	VXORPS    Z5, Z5, Z5
	MOVQ      R9, BX
	MOVQ      CX, AX           // the row loop that runs no vector past n
	SUBQ      R13, AX
	CMPQ      AX, $80
	JGT       zrows6
	CMPQ      AX, $64
	JGT       zrows5
	CMPQ      AX, $48
	JGT       zrows4
	CMPQ      AX, $32
	JGT       zrows3
	CMPQ      AX, $16
	JGT       zrows2

zrows1:
	CMPQ BX, R12
	JGE  zstore
	ZHEAD
	ZP(0, K1, Z0)
	ADDQ $8, BX
	JMP  zrows1

zrows2:
	CMPQ BX, R12
	JGE  zstore
	ZHEAD
	ZP(0, K1, Z0)
	ZP(64, K2, Z1)
	ADDQ $8, BX
	JMP  zrows2

zrows3:
	CMPQ BX, R12
	JGE  zstore
	ZHEAD
	ZP(0, K1, Z0)
	ZP(64, K2, Z1)
	ZP(128, K3, Z2)
	ADDQ $8, BX
	JMP  zrows3

zrows4:
	CMPQ BX, R12
	JGE  zstore
	ZHEAD
	ZP(0, K1, Z0)
	ZP(64, K2, Z1)
	ZP(128, K3, Z2)
	ZP(192, K4, Z3)
	ADDQ $8, BX
	JMP  zrows4

zrows5:
	CMPQ BX, R12
	JGE  zstore
	ZHEAD
	ZP(0, K1, Z0)
	ZP(64, K2, Z1)
	ZP(128, K3, Z2)
	ZP(192, K4, Z3)
	ZP(256, K5, Z4)
	ADDQ $8, BX
	JMP  zrows5

zrows6:
	CMPQ BX, R12
	JGE  zstore
	ZHEAD
	ZP(0, K1, Z0)
	ZP(64, K2, Z1)
	ZP(128, K3, Z2)
	ZP(192, K4, Z3)
	ZP(256, K5, Z4)
	ZP(320, K6, Z5)
	ADDQ $8, BX
	JMP  zrows6

zstore:
	LEAQ    (SI)(R13*4), AX
	VMOVUPS Z0, K1, (AX)
	VMOVUPS Z1, K2, 64(AX)
	VMOVUPS Z2, K3, 128(AX)
	VMOVUPS Z3, K4, 192(AX)
	VMOVUPS Z4, K5, 256(AX)
	VMOVUPS Z5, K6, 320(AX)
	ADDQ    $96, R13
	JMP     zband

yband:
	LEAQ      matvecMask<>(SB), R15

ybandnext:
	CMPQ      R13, CX
	JGE       banded
	MOVQ      CX, AX
	SUBQ      R13, AX
	MOVL      $8, DX
	XORL      R14, R14
	YBANDMASK(Y6)
	YBANDMASK(Y7)
	YBANDMASK(Y8)
	YBANDMASK(Y9)
	YBANDMASK(Y10)
	YBANDMASK(Y11)
	LEAQ      (R8)(R13*4), R14
	VXORPS    Y0, Y0, Y0
	VXORPS    Y1, Y1, Y1
	VXORPS    Y2, Y2, Y2
	VXORPS    Y3, Y3, Y3
	VXORPS    Y4, Y4, Y4
	VXORPS    Y5, Y5, Y5
	MOVQ      R9, BX

yrow:
	CMPQ BX, R12
	JGE  ystore
	MOVQ (BX), AX
	YROW
	ADDQ $8, BX
	JMP  yrow

ystore:
	LEAQ       (SI)(R13*4), AX
	VMASKMOVPS Y0, Y6, (AX)
	VMASKMOVPS Y1, Y7, 32(AX)
	VMASKMOVPS Y2, Y8, 64(AX)
	VMASKMOVPS Y3, Y9, 96(AX)
	VMASKMOVPS Y4, Y10, 128(AX)
	VMASKMOVPS Y5, Y11, 160(AX)
	ADDQ       $48, R13
	JMP        ybandnext

banded:
	RET

// func matvecAVX2(kd []float32, rows []int, x, q []float32, lanes int)
TEXT ·matvecAVX2(SB), NOSPLIT, $0-104
	MOVQ kd_base+0(FP), R8
	MOVQ rows_base+24(FP), R9
	MOVQ rows_len+32(FP), R12
	LEAQ (R9)(R12*8), R12
	MOVQ x_base+48(FP), R10
	MOVQ q_base+72(FP), SI
	MOVQ q_len+80(FP), CX
	MOVQ lanes+96(FP), DX
	CALL matvecBody<>(SB)
	VZEROUPPER
	RET

// The float64 sign-clearing mask (also the largest int64, the cut's "no
// position yet"), +Inf, 4, and the lane positions 0–7 as qwords and 8.
DATA cgConst<>+0(SB)/8, $0x7fffffffffffffff
DATA cgConst<>+8(SB)/8, $0x7ff0000000000000
DATA cgConst<>+16(SB)/8, $4
DATA cgConst<>+24(SB)/8, $0
DATA cgConst<>+32(SB)/8, $1
DATA cgConst<>+40(SB)/8, $2
DATA cgConst<>+48(SB)/8, $3
DATA cgConst<>+56(SB)/8, $4
DATA cgConst<>+64(SB)/8, $5
DATA cgConst<>+72(SB)/8, $6
DATA cgConst<>+80(SB)/8, $7
DATA cgConst<>+88(SB)/8, $8
GLOBL cgConst<>(SB), RODATA|NOPTR, $96

// LANESUM leaves in the low double of X the sum of the four lanes of its
// YMM register as (l₀ + l₂) + (l₁ + l₃), the Go passes' order; T is
// scratch.
#define LANESUM(Y, X, T) \
	VEXTRACTF128 $1, Y, T; \
	VADDPD       T, X, X; \
	VPERMILPD    $1, X, T; \
	VADDSD       T, X, X

// The conjugate-gradient phase's passes, over n rounded up to four (the
// pads hold zeros), four elements a step; operation for operation the Go
// expressions of cg.go, a sum's lane t mod 4 in lane t mod 4 of its
// register. CX = the padded length.
#define PADDED \
	MOVQ smo32_n(DI), CX; \
	ADDQ $3, CX; \
	ANDQ $-4, CX

// listBody writes to R8 the positions t < CX at which the float64 vector
// at SI is not zero (a NaN is not), in order, and returns their count in
// AX. The ZMM loop files eight a step by VPCOMPRESSQ under the opmask of
// the nonzero lanes, where the solver at DI runs 16 lanes; the other is
// branch-free, one position a step. It uses BX, DX, R11, X0, X15 (Z0–Z3,
// K1–K3).
TEXT listBody<>(SB), NOSPLIT, $0-0
	XORQ AX, AX
	XORQ BX, BX
	CMPQ smo32_lanes(DI), $16
	JEQ  zlist
	VXORPD X15, X15, X15

list:
	CMPQ     BX, CX
	JGE      listed
	MOVQ     BX, (R8)(AX*8)
	XORL     DX, DX
	XORL     R11, R11
	VUCOMISD (SI)(BX*8), X15
	SETNE    DL
	SETPS    R11
	ORL      R11, DX
	ADDQ     DX, AX
	INCQ     BX
	JMP      list

zlist:
	VPXORQ       Z0, Z0, Z0
	VMOVDQU64    cgConst<>+24(SB), Z1
	VPBROADCASTQ cgConst<>+88(SB), Z2
	LEAQ         laneMasks<>(SB), R11

zlistgroup:
	CMPQ        BX, CX
	JGE         listed
	MOVQ        CX, DX
	SUBQ        BX, DX
	CMPQ        DX, $8
	JLE         zlistmask
	MOVL        $8, DX

zlistmask:
	KMOVW       (R11)(DX*2), K2
	VCMPPD      $0x04, (SI)(BX*8), Z0, K2, K1 // x ≠ 0 (NEQ_UQ), below n
	VPCOMPRESSQ Z1, K1, Z3
	KMOVW       K1, DX
	POPCNTL     DX, DX
	KMOVW       (R11)(DX*2), K3
	VMOVDQU64   Z3, K3, (R8)(AX*8)
	ADDQ        DX, AX
	VPADDQ      Z2, Z1, Z1
	ADDQ        $8, BX
	JMP         zlistgroup

listed:
	RET

// func freeRowsAVX2(s *smo32) (w int, sum float64)
//
// listBody over m, then Σ_W h one listed position after another, as the
// Go loop adds it.
TEXT ·freeRowsAVX2(SB), NOSPLIT, $0-24
	MOVQ   s+0(FP), DI
	MOVQ   smo32_free(DI), SI
	MOVQ   smo32_byClass(DI), R8
	MOVQ   smo32_n(DI), CX
	CALL   listBody<>(SB)
	MOVQ   smo32_coef(DI), R9
	VXORPD X0, X0, X0
	XORQ   BX, BX

sumfree:
	CMPQ   BX, AX
	JGE    summedfree
	MOVQ   (R8)(BX*8), DX
	VADDSD (R9)(DX*8), X0, X0
	INCQ   BX
	JMP    sumfree

summedfree:
	MOVQ   AX, w+8(FP)
	VMOVSD X0, sum+16(FP)
	VZEROUPPER
	RET

// func directionAVX2(s *smo32, mu, gamma float64) (rd float64)
//
// R8 = h (coef), R9 = m (free), R10 = d (dir), R13 = x (v); Y10 = μ,
// Y11 = γ; Y8 = rᵀd's lanes.
TEXT ·directionAVX2(SB), NOSPLIT, $0-32
	MOVQ         s+0(FP), DI
	PADDED
	MOVQ         smo32_coef(DI), R8
	MOVQ         smo32_free(DI), R9
	MOVQ         smo32_dir(DI), R10
	MOVQ         smo32_v(DI), R13
	VBROADCASTSD mu+8(FP), Y10
	VBROADCASTSD gamma+16(FP), Y11
	VXORPD       Y8, Y8, Y8
	XORQ         AX, AX

direction:
	CMPQ       AX, CX
	JGE        directed
	VMOVUPD    (R8)(AX*8), Y0
	VSUBPD     Y0, Y10, Y0              // μ − h
	VMULPD     (R9)(AX*8), Y0, Y0       // r = m·(μ − h)
	VMULPD     (R10)(AX*8), Y11, Y1     // γ·d
	VADDPD     Y1, Y0, Y1               // d = r + γ·d
	VMOVUPD    Y1, (R10)(AX*8)
	VCVTPD2PSY Y1, X2
	VMOVUPS    X2, (R13)(AX*4)          // x = float32(d)
	VMULPD     Y1, Y0, Y0
	VADDPD     Y0, Y8, Y8               // rᵀd
	ADDQ       $4, AX
	JMP        direction

directed:
	LANESUM(Y8, X8, X0)
	VMOVSD X8, rd+24(FP)
	VZEROUPPER
	RET

// RATIO leaves in Y4 the ratio of the room to a bound along y·d to |d| of
// the four lanes at AX, d in Y1 (cutGo's room / |d|): R11 = α, R12 = y,
// Y12 = C, Y13 = the sign-clearing mask, Y15 = 0. It uses Y3 and Y5.
#define RATIO \
	VMULPD    (R12)(AX*8), Y1, Y3; \
	VCMPPD    $0x1e, Y15, Y3, Y3; \
	VMOVUPD   (R11)(AX*8), Y4; \
	VSUBPD    Y4, Y12, Y5; \
	VBLENDVPD Y3, Y5, Y4, Y4; \
	VANDPD    Y13, Y1, Y1; \
	VDIVPD    Y1, Y4, Y4

// MINAT merges the (ratio, position) pairs b into a lane by lane: b wins
// with the smaller ratio, or the same ratio at a smaller position, so
// what survives is the first position a scalar scan would have kept.
#define MINAT(av, ai, bv, bi, t0, t1, t2) \
	VCMPPD    $0x11, av, bv, t0; \
	VCMPPD    $0x00, av, bv, t1; \
	VPCMPGTQ  bi, ai, t2; \
	VPAND     t2, t1, t1; \
	VPOR      t1, t0, t0; \
	VBLENDVPD t0, bv, av, av; \
	VBLENDVPD t0, bi, ai, ai

// func matvecCutAVX2(s *smo32, rows []int, rd float64) (dq, sq, lmax float64, k int)
//
// matvecBody over the listed rows with x in v, then one pass for dᵀq,
// Σ_W q and the least ratio of a lane's room to a bound to its |d|:
// R8 = d, R9 = m, R10 = q, R11 = α, R12 = y; Y8 = dᵀq's lanes, Y9 =
// mᵀq's, Y10 = the least ratio so far by VMINPD, which keeps its second
// source, the running value, against a NaN. Y12 = C, Y13 = the
// sign-clearing mask, Y15 = 0. When λ = rd/dᵀq reaches that least ratio
// — a box cut, a few steps in a hundred — a second pass is cutGo itself:
// every ratio again, Y10 and Y14 each lane's least one and its first
// position (the largest int64, Y13's bits, while it has none), Y6 = the
// positions, Y7 = 4. Otherwise the least ratio, above λ, and no position.
TEXT ·matvecCutAVX2(SB), NOSPLIT, $0-72
	MOVQ         s+0(FP), DI
	MOVQ         smo32_kd(DI), R8
	MOVQ         rows_base+8(FP), R9
	MOVQ         rows_len+16(FP), R12
	LEAQ         (R9)(R12*8), R12
	MOVQ         smo32_v(DI), R10
	MOVQ         smo32_q(DI), SI
	MOVQ         smo32_n(DI), CX
	MOVQ         smo32_lanes(DI), DX
	CALL         matvecBody<>(SB)
	PADDED
	MOVQ         smo32_dir(DI), R8
	MOVQ         smo32_free(DI), R9
	MOVQ         smo32_q(DI), R10
	MOVQ         smo32_alpha(DI), R11
	MOVQ         smo32_y(DI), R12
	VBROADCASTSD smo32_c(DI), Y12
	VBROADCASTSD cgConst<>+0(SB), Y13
	VBROADCASTSD cgConst<>+8(SB), Y10
	VXORPD       Y15, Y15, Y15
	VXORPD       Y8, Y8, Y8
	VXORPD       Y9, Y9, Y9
	XORQ         AX, AX

curvature:
	CMPQ      AX, CX
	JGE       curved
	VCVTPS2PD (R10)(AX*4), Y0
	VMOVUPD   (R8)(AX*8), Y1
	VMULPD    Y1, Y0, Y2
	VADDPD    Y2, Y8, Y8               // dᵀq
	VMULPD    (R9)(AX*8), Y0, Y2
	VADDPD    Y2, Y9, Y9               // Σ_W q
	RATIO
	VMINPD    Y10, Y4, Y10
	ADDQ      $4, AX
	JMP       curvature

curved:
	LANESUM(Y8, X8, X0)
	VMOVSD       X8, dq+40(FP)
	LANESUM(Y9, X9, X0)
	VMOVSD       X9, sq+48(FP)
	VEXTRACTF128 $1, Y10, X0
	VMINPD       X0, X10, X10
	VPERMILPD    $1, X10, X0
	VMINSD       X0, X10, X10
	VMOVSD       rd+32(FP), X0
	VDIVSD       X8, X0, X0            // λ
	VUCOMISD     X10, X0               // λ ? least
	JCC          exact
	VMOVSD       X10, lmax+56(FP)
	MOVQ         $-1, k+64(FP)
	VZEROUPPER
	RET

exact:
	VBROADCASTSD cgConst<>+8(SB), Y10
	VMOVDQA      Y13, Y14
	VMOVDQU      cgConst<>+24(SB), Y6
	VPBROADCASTQ cgConst<>+16(SB), Y7
	XORQ         AX, AX

ratios:
	CMPQ      AX, CX
	JGE       reduced
	VMOVUPD   (R8)(AX*8), Y1
	RATIO
	VCMPPD    $0x11, Y10, Y4, Y0       // ratio < least
	VCMPPD    $0x00, Y10, Y4, Y1       // ratio == least …
	VPCMPEQQ  Y13, Y14, Y2             // … with no position yet (+Inf)
	VPAND     Y2, Y1, Y1
	VPOR      Y1, Y0, Y0
	VBLENDVPD Y0, Y4, Y10, Y10
	VBLENDVPD Y0, Y6, Y14, Y14
	VPADDQ    Y7, Y6, Y6
	ADDQ      $4, AX
	JMP       ratios

reduced:
	VEXTRACTF128 $1, Y10, X0
	VEXTRACTI128 $1, Y14, X1
	MINAT(X10, X14, X0, X1, X2, X3, X4)
	VPERMILPD    $1, X10, X0
	VPSHUFD      $0x4e, X14, X1
	MINAT(X10, X14, X0, X1, X2, X3, X4)
	VMOVSD       X10, lmax+56(FP)
	VMOVQ        X14, AX
	MOVQ         $-1, BX
	MOVQ         $0x7fffffffffffffff, DX
	CMPQ         AX, DX
	CMOVQEQ      BX, AX
	MOVQ         AX, k+64(FP)
	VZEROUPPER
	RET

// ADVANCE is advanceGo's step on the four lanes at AX: it leaves the new
// α, kept in [0, C] as advanceGo keeps it, in Y0 and m in Y4. VMAXPD
// returns its second source, 0, when the first is not greater (NaN and −0
// included), VMINPD C unless less.
#define ADVANCE \
	VMULPD    (R9)(AX*8), Y10, Y0; \
	VMULPD    (R10)(AX*8), Y0, Y0; \
	VADDPD    (R8)(AX*8), Y0, Y0; \
	VMAXPD    Y15, Y0, Y0; \
	VMINPD    Y12, Y0, Y0; \
	VCVTPS2PD (R13)(AX*4), Y1; \
	VMULPD    Y1, Y10, Y1; \
	VADDPD    (R11)(AX*8), Y1, Y1; \
	VMOVUPD   Y1, (R11)(AX*8); \
	VSUBPD    Y1, Y11, Y1; \
	VMOVUPD   (R12)(AX*8), Y4; \
	VMULPD    Y4, Y1, Y1; \
	VMULPD    Y1, Y1, Y2; \
	VADDPD    Y2, Y8, Y8; \
	VANDPD    Y13, Y1, Y1; \
	VMAXPD    Y9, Y1, Y9

// func advanceAVX2(s *smo32, lam, mu float64, k int) (rr, rmax float64)
//
// R8 = α, R9 = y, R10 = d, R11 = h, R12 = m, R13 = q; Y10 = λ, Y11 = μ,
// Y12 = C, Y13 = the sign-clearing mask, Y15 = 0; Y8 = rᵀr's lanes,
// Y9 = max|r|'s (α·λy·d, h + λq, r = m(μ − h): the order of advanceGo).
// With k ≥ 0 a second loop also applies the cut's fix, lane by lane: a
// lane of W that is k, or that the step carried onto the bound its y·d
// points to, goes to that bound and leaves W; Y14 = k, Y6 = the
// positions, Y5 = 4.
TEXT ·advanceAVX2(SB), NOSPLIT, $0-48
	MOVQ         s+0(FP), DI
	PADDED
	MOVQ         smo32_alpha(DI), R8
	MOVQ         smo32_y(DI), R9
	MOVQ         smo32_dir(DI), R10
	MOVQ         smo32_coef(DI), R11
	MOVQ         smo32_free(DI), R12
	MOVQ         smo32_q(DI), R13
	VBROADCASTSD lam+8(FP), Y10
	VBROADCASTSD mu+16(FP), Y11
	VBROADCASTSD smo32_c(DI), Y12
	VBROADCASTSD cgConst<>+0(SB), Y13
	VXORPD       Y15, Y15, Y15
	VXORPD       Y8, Y8, Y8
	VXORPD       Y9, Y9, Y9
	XORQ         AX, AX
	CMPQ         k+24(FP), $0
	JGE          fixing

advance:
	CMPQ    AX, CX
	JGE     advanced
	ADVANCE
	VMOVUPD Y0, (R8)(AX*8)
	ADDQ    $4, AX
	JMP     advance

fixing:
	VMOVDQU      cgConst<>+24(SB), Y6
	VPBROADCASTQ cgConst<>+16(SB), Y5
	VPBROADCASTQ k+24(FP), Y14

fix:
	CMPQ      AX, CX
	JGE       advanced
	ADVANCE
	VMOVUPD   (R9)(AX*8), Y1
	VMULPD    (R10)(AX*8), Y1, Y1       // y·d
	VCMPPD    $0x1e, Y15, Y1, Y2        // y·d > 0
	VCMPPD    $0x12, Y15, Y0, Y3        // a <= 0
	VCMPPD    $0x11, Y15, Y1, Y1        // y·d < 0
	VANDPD    Y3, Y1, Y1
	VCMPPD    $0x1d, Y12, Y0, Y3        // a >= C
	VANDPD    Y2, Y3, Y3
	VORPD     Y3, Y1, Y1
	VPCMPEQQ  Y14, Y6, Y3               // t == k
	VPOR      Y3, Y1, Y1
	VCMPPD    $0x04, Y15, Y4, Y3        // m ≠ 0
	VANDPD    Y3, Y1, Y1                // fix
	VANDPD    Y12, Y2, Y3               // y·d > 0 ? C : 0
	VBLENDVPD Y1, Y3, Y0, Y0
	VANDNPD   Y4, Y1, Y4
	VMOVUPD   Y4, (R12)(AX*8)
	VMOVUPD   Y0, (R8)(AX*8)
	VPADDQ    Y5, Y6, Y6
	ADDQ      $4, AX
	JMP       fix

advanced:
	LANESUM(Y8, X8, X0)
	VMOVSD       X8, rr+32(FP)
	VEXTRACTF128 $1, Y9, X0
	VMAXPD       X0, X9, X9
	VPERMILPD    $1, X9, X0
	VMAXSD       X0, X9, X9
	VMOVSD       X9, rmax+40(FP)
	VZEROUPPER
	RET

// func rebuildAVX2(s *smo32)
//
// x = float32(α∘y) into v, listBody over α into byClass, matvecBody
// over that list, then v = float32(y − q) and the masks from α: R8 = α,
// R9 = y, R10 = v, R11 = q, R12 = outUp, R13 = outLow; Y12 = C, Y15 = 0;
// X13 = the positions t … t+3 as dwords, X14 = n, X11 = 4.
TEXT ·rebuildAVX2(SB), NOSPLIT, $0-8
	MOVQ s+0(FP), DI
	PADDED
	MOVQ smo32_alpha(DI), R8
	MOVQ smo32_y(DI), R9
	MOVQ smo32_v(DI), R10
	XORQ AX, AX

beta:
	CMPQ       AX, CX
	JGE        listbeta
	VMOVUPD    (R8)(AX*8), Y0
	VMULPD     (R9)(AX*8), Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (R10)(AX*4)
	ADDQ       $4, AX
	JMP        beta

listbeta:
	MOVQ smo32_alpha(DI), SI
	MOVQ smo32_byClass(DI), R8
	MOVQ smo32_n(DI), CX
	CALL listBody<>(SB)
	MOVQ smo32_kd(DI), R8
	MOVQ smo32_byClass(DI), R9
	LEAQ (R9)(AX*8), R12
	MOVQ smo32_v(DI), R10
	MOVQ smo32_q(DI), SI
	MOVQ smo32_n(DI), CX
	MOVQ smo32_lanes(DI), DX
	CALL matvecBody<>(SB)
	PADDED
	MOVQ         smo32_alpha(DI), R8
	MOVQ         smo32_y(DI), R9
	MOVQ         smo32_v(DI), R10
	MOVQ         smo32_q(DI), R11
	MOVQ         smo32_outUp(DI), R12
	MOVQ         smo32_outLow(DI), R13
	VBROADCASTSD smo32_c(DI), Y12
	VXORPD       Y15, Y15, Y15
	VMOVDQU      sweepConst<>+32(SB), X13
	VPBROADCASTD smo32_n(DI), X14
	VPBROADCASTD cgConst<>+16(SB), X11
	XORQ         AX, AX

restore:
	CMPQ         AX, CX
	JGE          restored
	VCVTPS2PD    (R11)(AX*4), Y0
	VMOVUPD      (R9)(AX*8), Y1
	VSUBPD       Y0, Y1, Y0            // y − q
	VCVTPD2PSY   Y0, X0
	VMOVUPS      X0, (R10)(AX*4)
	VMOVUPD      (R8)(AX*8), Y2
	VCMPPD       $0x15, Y12, Y2, Y3    // !(α < C)
	VCMPPD       $0x1a, Y15, Y2, Y4    // !(α > 0)
	VBLENDVPD    Y1, Y4, Y3, Y5        // outUp:  y < 0 ? !(α > 0) : !(α < C)
	VBLENDVPD    Y1, Y3, Y4, Y4        // outLow: y < 0 ? !(α < C) : !(α > 0)
	VEXTRACTF128 $1, Y5, X6
	VSHUFPS      $0x88, X6, X5, X5     // the low dword of each lane
	VEXTRACTF128 $1, Y4, X6
	VSHUFPS      $0x88, X6, X4, X4
	VPCMPGTD     X13, X14, X7          // t < n
	VMASKMOVPS   X5, X7, (R12)(AX*4)
	VMASKMOVPS   X4, X7, (R13)(AX*4)
	VPADDD       X11, X13, X13
	ADDQ         $4, AX
	JMP          restore

restored:
	VZEROUPPER
	RET

// func decideAVX2(coef []float64, idx []int, k []float32, stride int, test []int, rho float64, d *[decideLanes]float64)
//
// decide for sixteen test samples at once, one float64 lane each: lane l
// reads row test[l] of K (row 0 past len(test)) at every training column
// idx[i] whose coefficient is not zero (a NaN is not), in idx order, by
// VGATHERDPS, and adds float64(c·float64(K)) — VMULPD, then VADDPD — into
// a sum from +0; then d[l] = sum − ρ. The sums of lanes 0–3, 4–7, 8–11
// and 12–15 are Y0–Y3; Y12, Y13 = the rows' element offsets, lanes 0–7
// and 8–15, built in the frame.
TEXT ·decideAVX2(SB), NOSPLIT, $64-120
	MOVQ test_base+80(FP), SI
	MOVQ test_len+88(FP), DX
	MOVQ stride+72(FP), R11
	XORQ BX, BX

offsets:
	XORL  AX, AX
	CMPQ  BX, DX
	JGE   offset
	MOVQ  (SI)(BX*8), AX
	IMULQ R11, AX

offset:
	MOVL AX, (SP)(BX*4)
	INCQ BX
	CMPQ BX, $16
	JLT  offsets

	MOVQ    coef_base+0(FP), R8
	MOVQ    coef_len+8(FP), CX
	MOVQ    idx_base+24(FP), R9
	MOVQ    k_base+48(FP), R10
	VMOVDQU (SP), Y12
	VMOVDQU 32(SP), Y13
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y15, Y15, Y15
	XORQ    BX, BX

term:
	CMPQ     BX, CX
	JGE      scored
	VMOVSD   (R8)(BX*8), X14
	VUCOMISD X15, X14                  // c ? 0
	JNE      gather
	JPS      gather
	INCQ     BX
	JMP      term

gather:
	VBROADCASTSD X14, Y14
	MOVQ         (R9)(BX*8), AX
	LEAQ         (R10)(AX*4), DX        // &K[0][idx[i]]
	VPCMPEQD     Y8, Y8, Y8
	VGATHERDPS   Y8, (DX)(Y12*4), Y9
	VPCMPEQD     Y8, Y8, Y8
	VGATHERDPS   Y8, (DX)(Y13*4), Y10
	VCVTPS2PD    X9, Y4
	VEXTRACTF128 $1, Y9, X9
	VCVTPS2PD    X9, Y5
	VCVTPS2PD    X10, Y6
	VEXTRACTF128 $1, Y10, X10
	VCVTPS2PD    X10, Y7
	VMULPD       Y4, Y14, Y4
	VMULPD       Y5, Y14, Y5
	VMULPD       Y6, Y14, Y6
	VMULPD       Y7, Y14, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	INCQ         BX
	JMP          term

scored:
	VBROADCASTSD rho+104(FP), Y14
	VSUBPD       Y14, Y0, Y0
	VSUBPD       Y14, Y1, Y1
	VSUBPD       Y14, Y2, Y2
	VSUBPD       Y14, Y3, Y3
	MOVQ         d+112(FP), AX
	VMOVUPD      Y0, (AX)
	VMOVUPD      Y1, 32(AX)
	VMOVUPD      Y2, 64(AX)
	VMOVUPD      Y3, 96(AX)
	VZEROUPPER
	RET
