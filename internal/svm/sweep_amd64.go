package svm

import (
	_ "unsafe" // go:linkname

	"fcma/internal/blas"
)

// useAVX2 routes the fused first-order loop and the seed's class sums
// through the assembly in sweep_amd64.s. It is set once, at init, from the
// one CPUID probe in the tree (internal/blas); only tests write it
// afterwards, to hold the two paths against each other.
//
// The assembly multiplies, adds and divides separately (no FMA), in the
// order and width of the Go expressions in step, sweep and classSums,
// clips in step's order and resolves ties as the scalar scan does, so both
// paths leave the same bits in every α, v[t] and mask and select the same
// pairs. The pin holds at any GOAMD64: the Go loops round each product by
// an explicit conversion, which the compiler may not fuse into an add.
var useAVX2 = blas.HasAVX2()

// useZMM runs matvecAVX2's loops on ZMM vectors, with the same bits; it
// reads internal/blas's probe by linkname, as internal/norm does.
var useZMM = useAVX2 && blasHostLanes == 16

//go:linkname blasHostLanes fcma/internal/blas.hostLanes
var blasHostLanes int

// solveAVX2 runs solveFused's loop body — step(i, j), then sweep if α
// moved — from the selected pair (i, j) until the sweep finds no violating
// pair or budget ≥ 1 iterations are done, and returns how many it ran and
// the selection it stopped at. It reads the solver's fields at the offsets
// the compiler writes to go_asm.h.
//
//go:noescape
func solveAVX2(s *smo32, i, j, budget int) (done, ni, nj int, ok bool)

// sweepOnceAVX2 is sweep on the assembly path: one pass of the routine
// solveAVX2 calls every iteration, the entry the tie-break tests and the
// fuzz target hold against the Go loop.
//
//go:noescape
func sweepOnceAVX2(s *smo32, i, j int, cyi, cyj float32) (ni, nj int, ok bool)

// classSumsAVX2 is classSums on the assembly path, which seed calls when
// useAVX2 is set: the same adds in the same order, a block of columns at a
// time.
//
//go:noescape
func classSumsAVX2(kd []float32, rows []int, np int, rp, rm []float64)

// matvecAVX2, directionAVX2, curvatureAVX2 and advanceAVX2 are the
// conjugate-gradient phase's mat-vec and passes (matvecGo, directionGo,
// curvatureGo, advanceGo) on the assembly path, bit for bit.
//
//go:noescape
func matvecAVX2(kd []float32, rows []int, x, q []float32)

//go:noescape
func directionAVX2(s *smo32, mu, gamma float64) (rd, lmax float64)

//go:noescape
func curvatureAVX2(s *smo32) (dq, sq float64)

//go:noescape
func advanceAVX2(s *smo32, lam, mu float64) (rr, rmax float64)
