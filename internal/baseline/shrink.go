package baseline

import "math"

// Shrinking for the double-precision solver, following LibSVM's
// Solver::do_shrinking: variables confidently stuck at a bound are removed
// from the active set so the per-iteration scans and gradient updates touch
// fewer entries; when the active problem converges, the gradient is
// reconstructed over all variables and optimality is re-checked on the
// full set.

// shrinkState augments smo64 with an active set.
type shrinkState struct {
	active     []bool
	activeList []int
	unshrunk   bool
	counter    int
}

func newShrinkState(n int) *shrinkState {
	s := &shrinkState{
		active:     make([]bool, n),
		activeList: make([]int, n),
		counter:    shrinkInterval(n),
	}
	for i := range s.active {
		s.active[i] = true
		s.activeList[i] = i
	}
	return s
}

func shrinkInterval(n int) int {
	if n < 1000 {
		return n
	}
	return 1000
}

// maxViolation returns Gmax1 = max{−y·G over I_up} and Gmax2 = max{y·G
// over I_low} over the active set.
func (s *smo64) maxViolation() (gmax1, gmax2 float64) {
	gmax1, gmax2 = math.Inf(-1), math.Inf(-1)
	for _, t := range s.shrink.activeList {
		if s.y[t] == 1 {
			if s.alpha[t] < s.c && -s.g[t] > gmax1 {
				gmax1 = -s.g[t]
			}
			if s.alpha[t] > 0 && s.g[t] > gmax2 {
				gmax2 = s.g[t]
			}
		} else {
			if s.alpha[t] > 0 && s.g[t] > gmax1 {
				gmax1 = s.g[t]
			}
			if s.alpha[t] < s.c && -s.g[t] > gmax2 {
				gmax2 = -s.g[t]
			}
		}
	}
	return gmax1, gmax2
}

// beShrunk reports whether variable t is confidently bounded-optimal.
func (s *smo64) beShrunk(t int, gmax1, gmax2 float64) bool {
	switch {
	case s.alpha[t] >= s.c: // upper bound
		if s.y[t] == 1 {
			return -s.g[t] > gmax1
		}
		return -s.g[t] > gmax2
	case s.alpha[t] <= 0: // lower bound
		if s.y[t] == 1 {
			return s.g[t] > gmax2
		}
		return s.g[t] > gmax1
	default:
		return false
	}
}

// doShrink removes confidently bounded variables from the active set.
// As in LibSVM, shrinking only begins once the violation has fallen within
// 10× the stopping tolerance (earlier shrinking risks wrong guesses).
func (s *smo64) doShrink() {
	gmax1, gmax2 := s.maxViolation()
	if gmax1+gmax2 > s.eps*10 {
		return
	}
	kept := s.shrink.activeList[:0]
	for _, t := range s.shrink.activeList {
		if s.beShrunk(t, gmax1, gmax2) {
			s.shrink.active[t] = false
		} else {
			kept = append(kept, t)
		}
	}
	s.shrink.activeList = kept
}

// reconstructGradient recomputes G for inactive variables from scratch:
// G_t = −1 + Σ_s α_s·Q_ts over the support vectors. It runs when the
// active problem has converged, before the final full-set optimality
// check.
func (s *smo64) reconstructGradient() {
	n := len(s.y)
	inactive := make([]int, 0, n-len(s.shrink.activeList))
	for t := 0; t < n; t++ {
		if !s.shrink.active[t] {
			inactive = append(inactive, t)
			s.g[t] = -1
		}
	}
	if len(inactive) == 0 {
		return
	}
	for src := 0; src < n; src++ {
		a := s.alpha[src]
		if a == 0 {
			continue
		}
		row := s.q.row(src)
		for _, t := range inactive {
			s.g[t] += a * row[t]
		}
	}
	// Reactivate everything.
	s.shrink.activeList = s.shrink.activeList[:0]
	for t := 0; t < n; t++ {
		s.shrink.active[t] = true
		s.shrink.activeList = append(s.shrink.activeList, t)
	}
}
