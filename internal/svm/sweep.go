package svm

// The fused first-order iteration: gradient maintenance and the next
// working-set selection in one unit-stride pass over two dense kernel
// rows, all in float32 as in the paper's PhiSVM; only the convergence test
// widens the two extremes to compare their gap with eps, as
// selectFirstOrder does.

import "math"

// sweep finishes the iteration step(i, j) began and selects the next one:
// every v[t] takes its gradient update −(cyi·K[i][t] + cyj·K[j][t]), and
// the same pass carries the maximal-violating pair of the updated state.
// It is the unfused oracle's gradient loop (addGradient, kept with the
// tests that pin this pass to it) followed by selectFirstOrder — the same
// operations on each element in the same order, `>=`/`<=` so the last
// index wins a tie — and returns what selectFirstOrder would.
//
// This loop is the reference and the only path off amd64. On a vector
// kernel path (smo32.lanes) the same pass runs in sweep_amd64.s, in two eight-lane scans, inside the
// assembly loop that also holds step.
func (s *smo32) sweep(i, j int, cyi, cyj float32) (int, int, bool) {
	v := s.v
	n := len(v)
	ki, kj := s.row(i)[:n], s.row(j)[:n]
	outUp, outLow := s.outUp[:n], s.outLow[:n]
	// The scan's state: the largest v over I_up and the smallest over
	// I_low so far, and where.
	gmax, gmin, imax, jmin := float32(math.Inf(-1)), float32(math.Inf(1)), -1, -1
	for t := range v {
		// Each product is rounded by its conversion, so no build may fuse
		// it into the add: the assembly's VMULPS, VADDPS, VSUBPS.
		vt := v[t] - (float32(cyi*ki[t]) + float32(cyj*kj[t]))
		v[t] = vt
		// The value test comes first: it is the one that settles most
		// elements once the scan has seen a few.
		if vt >= gmax && outUp[t] == 0 {
			gmax, imax = vt, t
		}
		if vt <= gmin && outLow[t] == 0 {
			gmin, jmin = vt, t
		}
	}
	if imax == -1 || jmin == -1 || float64(gmax)-float64(gmin) < s.eps {
		return -1, -1, false
	}
	return imax, jmin, true
}
