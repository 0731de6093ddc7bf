package svm

// The assembly in sweep_amd64.s runs where the solver's kernel path
// (smo32.lanes, blas.Lanes at reset) is a vector one: the fused
// first-order loop, the seed's class sums, selection, scoring and the
// conjugate-gradient phase's passes. It multiplies, adds and divides
// separately (no FMA), in the order and width of the Go expressions in
// step, sweep, classSums and cg.go, clips in step's order and resolves
// ties as the scalar scan does, so every path leaves the same bits in
// every α, v[t] and mask and selects the same pairs. The pin holds at any
// GOAMD64: the Go loops round each product by an explicit conversion,
// which the compiler may not fuse into an add.

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

// classSumsAVX2 is classSums on the assembly path, which seed calls on a
// vector kernel path: the same adds in the same order, a block of columns
// at a time.
//
//go:noescape
func classSumsAVX2(kd []float32, rows []int, np int, rp, rm []float64)

// selectAVX2 is selectFirstOrder: sweepBody's scan with no update.
//
//go:noescape
func selectAVX2(s *smo32) (i, j int, ok bool)

// cgAVX2 is the conjugate-gradient phase's passes (cgPath) in assembly,
// bit for bit the Go ones: four float64 lanes a step, and the mat-vec with
// its band of q in registers, sixteen columns a ZMM vector where s.lanes
// is 16, else eight a YMM one. matvecAVX2 is matvecGo on that path, the
// width its caller's lanes.
var cgAVX2 = cgPath{freeRowsAVX2, directionAVX2, matvecCutAVX2, advanceAVX2, rebuildAVX2}

//go:noescape
func matvecAVX2(kd []float32, rows []int, x, q []float32, lanes int)

//go:noescape
func freeRowsAVX2(s *smo32) (w int, sum float64)

//go:noescape
func directionAVX2(s *smo32, mu, gamma float64) (rd float64)

//go:noescape
func matvecCutAVX2(s *smo32, rows []int, rd float64) (dq, sq, lmax float64, k int)

//go:noescape
func advanceAVX2(s *smo32, lam, mu float64, k int) (rr, rmax float64)

//go:noescape
func rebuildAVX2(s *smo32)

// decideAVX2 is decideAll's pass: lane l scores row test[l] of k.
//
//go:noescape
func decideAVX2(coef []float64, idx []int, k []float32, stride int, test []int, rho float64, d *[decideLanes]float64)
