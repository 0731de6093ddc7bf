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
// class sums (classSumsAVX2) and the conjugate-gradient phase's mat-vec
// (matvecAVX2, whose ZMM loops are EVEX) and three float64 passes.
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
// indices:
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
#define SCAN(off, maxv, maxi, minv, mini, idx) \
	VMULPS  off(R8)(AX*4), Y12, Y6; \
	VMULPS  off(R9)(AX*4), Y13, Y7; \
	VADDPS  Y7, Y6, Y6; \
	VMOVUPS off(SI)(AX*4), Y7; \
	VSUBPS  Y6, Y7, Y7; \
	VMOVUPS Y7, off(SI)(AX*4); \
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
	JEQ          eight
	VPBROADCASTD sweepConst<>+8(SB), Y15

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
	VMULSS   (R8)(AX*4), X12, X6
	VMULSS   (R9)(AX*4), X13, X7
	VADDSS   X7, X6, X6
	VMOVSS   (SI)(AX*4), X7
	VSUBSS   X6, X7, X7
	VMOVSS   X7, (SI)(AX*4)
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
// a row's last n mod 8 columns.
DATA matvecMask<>+0(SB)/8, $0xffffffffffffffff
DATA matvecMask<>+8(SB)/8, $0xffffffffffffffff
DATA matvecMask<>+16(SB)/8, $0xffffffffffffffff
DATA matvecMask<>+24(SB)/8, $0xffffffffffffffff
DATA matvecMask<>+32(SB)/8, $0
DATA matvecMask<>+40(SB)/8, $0
DATA matvecMask<>+48(SB)/8, $0
DATA matvecMask<>+56(SB)/8, $0
GLOBL matvecMask<>(SB), RODATA|NOPTR, $64

// func matvecAVX2(kd []float32, rows []int, x, q []float32)
//
// matvecGo, four listed rows at a time: q = 0, then each vector of eight
// columns of q is loaded once per four rows, takes their four products
// (VMULPS) by four VADDPS in row order, and is stored; the last n mod 8
// columns go under a VMASKMOVPS mask (Y15), and the last rows mod 4 one
// at a time. Each row is read once, with unit stride. With useZMM set the
// same loops run sixteen columns a ZMM vector (zmm, below). R8 = kd, DI walks
// rows up to R12, R10 = x, SI = q, CX = n, R11 = the row stride in bytes,
// BX = the columns in whole vectors.
TEXT ·matvecAVX2(SB), NOSPLIT, $0-96
	MOVQ    kd_base+0(FP), R8
	MOVQ    rows_base+24(FP), DI
	MOVQ    rows_len+32(FP), R9
	MOVQ    x_base+48(FP), R10
	MOVQ    q_base+72(FP), SI
	MOVQ    q_len+80(FP), CX
	LEAQ    (CX*4), R11
	LEAQ    (DI)(R9*8), R12
	CMPB    ·useZMM(SB), $0
	JNE     zmm
	MOVQ    CX, BX
	ANDQ    $-8, BX
	MOVQ    CX, AX
	ANDQ    $7, AX
	NEGQ    AX
	LEAQ    matvecMask<>+32(SB), R9
	VMOVDQU (R9)(AX*4), Y15
	VXORPS  Y0, Y0, Y0
	XORQ    AX, AX

zero:
	CMPQ    AX, BX
	JGE     zerotail
	VMOVUPS Y0, (SI)(AX*4)
	ADDQ    $8, AX
	JMP     zero

zerotail:
	VMASKMOVPS Y0, Y15, (SI)(AX*4)

quad:
	LEAQ         32(DI), AX
	CMPQ         AX, R12
	JGT          single
	MOVQ         (DI), AX
	VBROADCASTSS (R10)(AX*4), Y1
	IMULQ        R11, AX
	LEAQ         (R8)(AX*1), DX
	MOVQ         8(DI), AX
	VBROADCASTSS (R10)(AX*4), Y4
	IMULQ        R11, AX
	LEAQ         (R8)(AX*1), R9
	MOVQ         16(DI), AX
	VBROADCASTSS (R10)(AX*4), Y5
	IMULQ        R11, AX
	LEAQ         (R8)(AX*1), R14
	MOVQ         24(DI), AX
	VBROADCASTSS (R10)(AX*4), Y6
	IMULQ        R11, AX
	LEAQ         (R8)(AX*1), R15
	XORQ         AX, AX

quadcols:
	CMPQ    AX, BX
	JGE     quadtail
	VMULPS  (DX)(AX*4), Y1, Y2
	VMULPS  (R9)(AX*4), Y4, Y3
	VADDPS  (SI)(AX*4), Y2, Y2
	VMULPS  (R14)(AX*4), Y5, Y7
	VADDPS  Y3, Y2, Y2
	VMULPS  (R15)(AX*4), Y6, Y8
	VADDPS  Y7, Y2, Y2
	VADDPS  Y8, Y2, Y2
	VMOVUPS Y2, (SI)(AX*4)
	ADDQ    $8, AX
	JMP     quadcols

quadtail:
	TESTQ      $7, CX
	JEQ        nextquad
	VMASKMOVPS (DX)(AX*4), Y15, Y2
	VMASKMOVPS (R9)(AX*4), Y15, Y3
	VMASKMOVPS (R14)(AX*4), Y15, Y7
	VMASKMOVPS (R15)(AX*4), Y15, Y8
	VMASKMOVPS (SI)(AX*4), Y15, Y9
	VMULPS     Y2, Y1, Y2
	VMULPS     Y3, Y4, Y3
	VMULPS     Y7, Y5, Y7
	VMULPS     Y8, Y6, Y8
	VADDPS     Y9, Y2, Y2
	VADDPS     Y3, Y2, Y2
	VADDPS     Y7, Y2, Y2
	VADDPS     Y8, Y2, Y2
	VMASKMOVPS Y2, Y15, (SI)(AX*4)

nextquad:
	ADDQ $32, DI
	JMP  quad

single:
	CMPQ         DI, R12
	JGE          done
	MOVQ         (DI), AX
	VBROADCASTSS (R10)(AX*4), Y1
	IMULQ        R11, AX
	LEAQ         (R8)(AX*1), DX
	XORQ         AX, AX

cols:
	CMPQ    AX, BX
	JGE     tail
	VMULPS  (DX)(AX*4), Y1, Y2
	VADDPS  (SI)(AX*4), Y2, Y2
	VMOVUPS Y2, (SI)(AX*4)
	ADDQ    $8, AX
	JMP     cols

tail:
	TESTQ      $7, CX
	JEQ        nextrow
	VMASKMOVPS (DX)(AX*4), Y15, Y2
	VMULPS     Y2, Y1, Y2
	VMASKMOVPS (SI)(AX*4), Y15, Y3
	VADDPS     Y3, Y2, Y2
	VMASKMOVPS Y2, Y15, (SI)(AX*4)

nextrow:
	ADDQ $8, DI
	JMP  single

done:
	VZEROUPPER
	RET

zmm:
	// The same loops sixteen columns a vector, the last n mod 16 under
	// the opmask K1 (zeroing loads; a masked-off lane is never read).
	MOVQ      CX, BX
	ANDQ      $-16, BX
	MOVQ      CX, R13
	ANDQ      $15, R13
	XORL      AX, AX
	BTSL      R13, AX
	DECL      AX
	KMOVW     AX, K1
	VXORPS    Z0, Z0, Z0
	XORQ      AX, AX

zzero:
	CMPQ    AX, BX
	JGE     zzerotail
	VMOVUPS Z0, (SI)(AX*4)
	ADDQ    $16, AX
	JMP     zzero

zzerotail:
	VMOVUPS Z0, K1, (SI)(AX*4)

zquad:
	LEAQ         32(DI), AX
	CMPQ         AX, R12
	JGT          zsingle
	MOVQ         (DI), AX
	VBROADCASTSS (R10)(AX*4), Z1
	IMULQ        R11, AX
	LEAQ         (R8)(AX*1), DX
	MOVQ         8(DI), AX
	VBROADCASTSS (R10)(AX*4), Z4
	IMULQ        R11, AX
	LEAQ         (R8)(AX*1), R9
	MOVQ         16(DI), AX
	VBROADCASTSS (R10)(AX*4), Z5
	IMULQ        R11, AX
	LEAQ         (R8)(AX*1), R14
	MOVQ         24(DI), AX
	VBROADCASTSS (R10)(AX*4), Z6
	IMULQ        R11, AX
	LEAQ         (R8)(AX*1), R15
	XORQ         AX, AX

zquadcols:
	CMPQ    AX, BX
	JGE     zquadtail
	VMULPS  (DX)(AX*4), Z1, Z2
	VMULPS  (R9)(AX*4), Z4, Z3
	VADDPS  (SI)(AX*4), Z2, Z2
	VMULPS  (R14)(AX*4), Z5, Z7
	VADDPS  Z3, Z2, Z2
	VMULPS  (R15)(AX*4), Z6, Z8
	VADDPS  Z7, Z2, Z2
	VADDPS  Z8, Z2, Z2
	VMOVUPS Z2, (SI)(AX*4)
	ADDQ    $16, AX
	JMP     zquadcols

zquadtail:
	TESTQ     R13, R13
	JEQ       znextquad
	VMOVUPS.Z (DX)(AX*4), K1, Z2
	VMOVUPS.Z (R9)(AX*4), K1, Z3
	VMOVUPS.Z (R14)(AX*4), K1, Z7
	VMOVUPS.Z (R15)(AX*4), K1, Z8
	VMOVUPS.Z (SI)(AX*4), K1, Z9
	VMULPS    Z2, Z1, Z2
	VMULPS    Z3, Z4, Z3
	VMULPS    Z7, Z5, Z7
	VMULPS    Z8, Z6, Z8
	VADDPS    Z9, Z2, Z2
	VADDPS    Z3, Z2, Z2
	VADDPS    Z7, Z2, Z2
	VADDPS    Z8, Z2, Z2
	VMOVUPS   Z2, K1, (SI)(AX*4)

znextquad:
	ADDQ $32, DI
	JMP  zquad

zsingle:
	CMPQ         DI, R12
	JGE          done
	MOVQ         (DI), AX
	VBROADCASTSS (R10)(AX*4), Z1
	IMULQ        R11, AX
	LEAQ         (R8)(AX*1), DX
	XORQ         AX, AX

zcols:
	CMPQ    AX, BX
	JGE     ztail
	VMULPS  (DX)(AX*4), Z1, Z2
	VADDPS  (SI)(AX*4), Z2, Z2
	VMOVUPS Z2, (SI)(AX*4)
	ADDQ    $16, AX
	JMP     zcols

ztail:
	TESTQ     R13, R13
	JEQ       znextrow
	VMOVUPS.Z (DX)(AX*4), K1, Z2
	VMOVUPS.Z (SI)(AX*4), K1, Z3
	VMULPS    Z2, Z1, Z2
	VADDPS    Z3, Z2, Z2
	VMOVUPS   Z2, K1, (SI)(AX*4)

znextrow:
	ADDQ $8, DI
	JMP  zsingle

// The float64 sign-clearing mask and +Inf, for the phase's passes.
DATA cgConst<>+0(SB)/8, $0x7fffffffffffffff
DATA cgConst<>+8(SB)/8, $0x7ff0000000000000
GLOBL cgConst<>(SB), RODATA|NOPTR, $16

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

// func directionAVX2(s *smo32, mu, gamma float64) (rd, lmax float64)
//
// R8 = h (coef), R9 = m (free), R10 = d (dir), R11 = α, R12 = y,
// R13 = x (v); Y10 = μ, Y11 = γ, Y12 = C; Y8 = rᵀd's lanes, Y9 = λmax's.
TEXT ·directionAVX2(SB), NOSPLIT, $0-40
	MOVQ         s+0(FP), DI
	PADDED
	MOVQ         smo32_coef(DI), R8
	MOVQ         smo32_free(DI), R9
	MOVQ         smo32_dir(DI), R10
	MOVQ         smo32_alpha(DI), R11
	MOVQ         smo32_y(DI), R12
	MOVQ         smo32_v(DI), R13
	VBROADCASTSD mu+8(FP), Y10
	VBROADCASTSD gamma+16(FP), Y11
	VBROADCASTSD smo32_c(DI), Y12
	VBROADCASTSD cgConst<>+0(SB), Y13
	VBROADCASTSD cgConst<>+8(SB), Y9
	VXORPD       Y15, Y15, Y15
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
	VMULPD     (R12)(AX*8), Y1, Y3      // y·d
	VCMPPD     $0x1e, Y15, Y3, Y3       // y·d > 0
	VMOVUPD    (R11)(AX*8), Y4
	VSUBPD     Y4, Y12, Y5              // C − α
	VBLENDVPD  Y3, Y5, Y4, Y4           // room
	VANDPD     Y13, Y1, Y1              // |d|
	VDIVPD     Y1, Y4, Y4
	VMINPD     Y9, Y4, Y9               // ratio < λmax ? ratio : λmax
	ADDQ       $4, AX
	JMP        direction

directed:
	LANESUM(Y8, X8, X0)
	VMOVSD       X8, rd+24(FP)
	VEXTRACTF128 $1, Y9, X0
	VMINPD       X0, X9, X9
	VPERMILPD    $1, X9, X0
	VMINSD       X0, X9, X9
	VMOVSD       X9, lmax+32(FP)
	VZEROUPPER
	RET

// func curvatureAVX2(s *smo32) (dq, sq float64)
//
// R8 = d, R9 = m, R10 = q; Y8 = dᵀq's lanes, Y9 = mᵀq's.
TEXT ·curvatureAVX2(SB), NOSPLIT, $0-24
	MOVQ   s+0(FP), DI
	PADDED
	MOVQ   smo32_dir(DI), R8
	MOVQ   smo32_free(DI), R9
	MOVQ   smo32_q(DI), R10
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	XORQ   AX, AX

curvature:
	CMPQ      AX, CX
	JGE       curved
	VCVTPS2PD (R10)(AX*4), Y0
	VMULPD    (R8)(AX*8), Y0, Y1
	VADDPD    Y1, Y8, Y8
	VMULPD    (R9)(AX*8), Y0, Y2
	VADDPD    Y2, Y9, Y9
	ADDQ      $4, AX
	JMP       curvature

curved:
	LANESUM(Y8, X8, X0)
	VMOVSD X8, dq+8(FP)
	LANESUM(Y9, X9, X0)
	VMOVSD X9, sq+16(FP)
	VZEROUPPER
	RET

// func advanceAVX2(s *smo32, lam, mu float64) (rr, rmax float64)
//
// R8 = α, R9 = y, R10 = d, R11 = h, R12 = m, R13 = q; Y10 = λ, Y11 = μ,
// Y12 = C, Y15 = 0; Y8 = rᵀr's lanes, Y9 = max|r|'s. The new α is kept in
// [0, C] as advanceGo keeps it: VMAXPD returns its second source, 0, when
// the first is not greater (NaN and −0 included), VMINPD C unless less.
TEXT ·advanceAVX2(SB), NOSPLIT, $0-40
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

advance:
	CMPQ      AX, CX
	JGE       advanced
	VMULPD    (R9)(AX*8), Y10, Y0       // λ·y
	VMULPD    (R10)(AX*8), Y0, Y0       // ·d
	VADDPD    (R8)(AX*8), Y0, Y0        // α +
	VMAXPD    Y15, Y0, Y0               // a > 0 ? a : 0
	VMINPD    Y12, Y0, Y0               // a < C ? a : C
	VMOVUPD   Y0, (R8)(AX*8)
	VCVTPS2PD (R13)(AX*4), Y1
	VMULPD    Y1, Y10, Y1               // λ·q
	VADDPD    (R11)(AX*8), Y1, Y1       // h +
	VMOVUPD   Y1, (R11)(AX*8)
	VSUBPD    Y1, Y11, Y1               // μ − h
	VMULPD    (R12)(AX*8), Y1, Y1       // r
	VMULPD    Y1, Y1, Y2
	VADDPD    Y2, Y8, Y8                // rᵀr
	VANDPD    Y13, Y1, Y1
	VMAXPD    Y9, Y1, Y9                // |r| > max ? |r| : max
	ADDQ      $4, AX
	JMP       advance

advanced:
	LANESUM(Y8, X8, X0)
	VMOVSD       X8, rr+24(FP)
	VEXTRACTF128 $1, Y9, X0
	VMAXPD       X0, X9, X9
	VPERMILPD    $1, X9, X0
	VMAXSD       X0, X9, X9
	VMOVSD       X9, rmax+32(FP)
	VZEROUPPER
	RET
