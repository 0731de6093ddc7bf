package svm

// The fused first-order iteration: gradient maintenance and the next
// working-set selection in one unit-stride pass over two dense kernel
// rows. Like the rest of the solver it keeps float64 state over float32
// kernel data.
//
//lint:file-allow f32purity deliberate float64 alpha/gradient accumulation per LIBSVM practice; kernel data stays float32

import "math"

// sweepLanes is the AVX2 sweep's running state as it leaves the kernel:
// lane k holds the scan over elements t ≡ k (mod 4) of the vector body.
type sweepLanes struct {
	maxv [4]float64
	maxi [4]int64
	minv [4]float64
	mini [4]int64
}

// reduce folds the four lanes into the state of one scan. Each lane holds
// the last index at which its own extreme occurs, so the larger value
// and, between equal values, the larger index is the element a scalar
// scan in index order would have ended on; −1 marks a lane with no member.
func (l *sweepLanes) reduce() (gmax, gmin float64, imax, jmin int) {
	gmax, gmin, imax, jmin = math.Inf(-1), math.Inf(1), -1, -1
	for k := range l.maxv {
		if v, i := l.maxv[k], int(l.maxi[k]); v > gmax || (v == gmax && i > imax) {
			gmax, imax = v, i
		}
		if v, i := l.minv[k], int(l.mini[k]); v < gmin || (v == gmin && i > jmin) {
			gmin, jmin = v, i
		}
	}
	return gmax, gmin, imax, jmin
}

// sweep finishes the iteration step(i, j) began and selects the next one:
// every g[t] takes its gradient update y[t]·(cyi·K[i][t] + cyj·K[j][t]),
// and the same pass carries the maximal-violating pair of the updated
// state. It is update's gradient loop followed by selectFirstOrder —
// the same operations on each element in the same order, `>=`/`<=` so
// the last index wins a tie — and returns what selectFirstOrder would.
//
// With AVX2 the first n&^3 elements go through sweepAVX2 four at a time;
// the Go loop below is the reference, the scalar tail, and the only path
// off amd64.
//
//lint:hotpath once per SMO iteration, the stage-3 inner loop
func (s *smo32) sweep(i, j int, cyi, cyj float64) (int, int, bool) {
	g := s.g
	n := len(g)
	ki, kj := s.row(i)[:n], s.row(j)[:n]
	y, alpha, c := s.y[:n], s.alpha[:n], s.c
	// The scan's state: the largest v = −y·g over I_up and the smallest
	// over I_low so far, and where.
	gmax, gmin, imax, jmin := math.Inf(-1), math.Inf(1), -1, -1
	from := 0
	if useAVX2 && n >= 4 {
		from = n &^ 3
		sweepAVX2(&s.lanes, &g[0], &alpha[0], &y[0], &ki[0], &kj[0], from, cyi, cyj, c)
		gmax, gmin, imax, jmin = s.lanes.reduce()
	}
	for t := from; t < n; t++ {
		yt := y[t]
		gt := g[t] + yt*(cyi*float64(ki[t])+cyj*float64(kj[t]))
		g[t] = gt
		// v is −g[t] for y = +1 and g[t] for y = −1, exactly. The value
		// test comes first: it is the one that settles most elements
		// once the scan has seen a few.
		v := -yt * gt
		if v >= gmax && inUp(yt, alpha[t], c) {
			gmax, imax = v, t
		}
		if v <= gmin && inUp(-yt, alpha[t], c) {
			gmin, jmin = v, t
		}
	}
	if imax == -1 || jmin == -1 || gmax-gmin < s.eps {
		return -1, -1, false
	}
	return imax, jmin, true
}

// inUp reports membership of I_up = {y = +1, α < C} ∪ {y = −1, α > 0};
// I_low is I_up with the labels exchanged.
func inUp(y, alpha, c float64) bool {
	if y > 0 {
		return alpha < c
	}
	return alpha > 0
}
