package svm

// The fused first-order iteration: gradient maintenance and the next
// working-set selection in one unit-stride pass over two dense kernel
// rows. Like the rest of the solver it keeps float64 state over float32
// kernel data.
//
//lint:file-allow f32purity deliberate float64 alpha/gradient accumulation per LIBSVM practice; kernel data stays float32

import "math"

// sweep finishes the iteration step(i, j) began and selects the next one:
// every v[t] takes its gradient update −(cyi·K[i][t] + cyj·K[j][t]), and
// the same pass carries the maximal-violating pair of the updated state.
// It is the unfused oracle's gradient loop (addGradient, kept with the
// tests that pin this pass to it) followed by selectFirstOrder — the same
// operations on each element in the same order, `>=`/`<=` so the last
// index wins a tie — and returns what selectFirstOrder would.
//
// This loop is the reference and the only path off amd64. With AVX2 the
// same pass runs in sweep_amd64.s, eight elements at a time, inside the
// assembly loop that also holds step.
//
//lint:hotpath once per SMO iteration, the stage-3 inner loop
func (s *smo32) sweep(i, j int, cyi, cyj float64) (int, int, bool) {
	v := s.v
	n := len(v)
	ki, kj := s.row(i)[:n], s.row(j)[:n]
	outUp, outLow := s.outUp[:n], s.outLow[:n]
	// The scan's state: the largest v over I_up and the smallest over
	// I_low so far, and where.
	gmax, gmin, imax, jmin := math.Inf(-1), math.Inf(1), -1, -1
	for t := range v {
		vt := v[t] - (cyi*float64(ki[t]) + cyj*float64(kj[t]))
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
	if imax == -1 || jmin == -1 || gmax-gmin < s.eps {
		return -1, -1, false
	}
	return imax, jmin, true
}
