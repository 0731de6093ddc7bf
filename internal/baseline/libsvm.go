package baseline

// This file is the float64 reference solver — the paper's LibSVM
// comparison point, which the float32 production solvers are validated
// against — so it is float64 by definition.

import (
	"fmt"
	"math"

	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// tau is the curvature floor for non-positive-definite pairs, as in LibSVM.
const tau = 1e-12

// node mirrors LibSVM's svm_node: an index/value pair. In precomputed-
// kernel mode each training sample's "feature vector" is its kernel row,
// stored as a node array in double precision — the representation whose
// gather-style access and float conversions Table 1/8 measure.
type node struct {
	Index int32
	Value float64
}

// qCache64 is a FIFO row cache over Q = y·yᵀ∘K in the style of LibSVM's
// LRU kernel cache.
type qCache64 struct {
	rows    map[int][]float64
	order   []int
	maxRows int
	build   func(i int, dst []float64)
	n       int
}

func newQCache64(n, maxRows int, build func(i int, dst []float64)) *qCache64 {
	if maxRows <= 0 {
		maxRows = n
	}
	return &qCache64{
		rows:    make(map[int][]float64, maxRows),
		maxRows: maxRows,
		build:   build,
		n:       n,
	}
}

func (c *qCache64) row(i int) []float64 {
	if r, ok := c.rows[i]; ok {
		return r
	}
	if len(c.order) >= c.maxRows {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.rows, evict)
	}
	r := make([]float64, c.n)
	c.build(i, r)
	c.rows[i] = r
	c.order = append(c.order, i)
	return r
}

// smo64 is the double-precision SMO solver with second-order working set
// selection, following LibSVM's Solver::Solve.
type smo64 struct {
	y       []int8
	alpha   []float64
	g       []float64 // gradient of the dual objective
	qd      []float64 // diagonal of Q
	q       *qCache64
	c       float64
	eps     float64
	maxIter int
	// shrinking enables LibSVM's active-set shrinking; shrink tracks the
	// active set (always present; the full set when shrinking is off).
	shrinking bool
	shrink    *shrinkState
}

// solve runs SMO to convergence and returns the iteration count.
func (s *smo64) solve() (int, error) {
	n := len(s.y)
	for i := range s.g {
		s.g[i] = -1
	}
	s.shrink = newShrinkState(n)
	counter := shrinkInterval(n)
	for iter := 0; iter < s.maxIter; iter++ {
		if s.shrinking {
			counter--
			if counter == 0 {
				counter = shrinkInterval(n)
				s.doShrink()
			}
		}
		i, j, ok := s.selectWorkingSet()
		if !ok {
			if s.shrinking && len(s.shrink.activeList) < n {
				// The shrunk problem converged: reconstruct the full
				// gradient and re-check optimality over every variable.
				s.reconstructGradient()
				counter = 1 // re-shrink promptly if work remains
				if i, j, ok = s.selectWorkingSet(); !ok {
					return iter, nil
				}
			} else {
				return iter, nil
			}
		}
		s.update(i, j)
	}
	return s.maxIter, fmt.Errorf("%w in %d iterations", svm.ErrNoConverge, s.maxIter)
}

// selectWorkingSet implements WSS2 (Fan, Chen, Lin 2005), LibSVM's default.
func (s *smo64) selectWorkingSet() (int, int, bool) {
	gmax := math.Inf(-1)
	gmax2 := math.Inf(-1)
	imax := -1
	for _, t := range s.shrink.activeList {
		yt := s.y[t]
		if yt == 1 {
			if s.alpha[t] < s.c && -s.g[t] >= gmax {
				gmax = -s.g[t]
				imax = t
			}
		} else {
			if s.alpha[t] > 0 && s.g[t] >= gmax {
				gmax = s.g[t]
				imax = t
			}
		}
	}
	if imax == -1 {
		return -1, -1, false
	}
	qi := s.q.row(imax)
	yi := float64(s.y[imax])
	jmin := -1
	objMin := math.Inf(1)
	for _, t := range s.shrink.activeList {
		yt := s.y[t]
		if yt == 1 {
			if s.alpha[t] > 0 {
				gradDiff := gmax + s.g[t]
				if s.g[t] >= gmax2 {
					gmax2 = s.g[t]
				}
				if gradDiff > 0 {
					quad := s.qd[imax] + s.qd[t] - 2*yi*qi[t]
					if quad <= 0 {
						quad = tau
					}
					if od := -(gradDiff * gradDiff) / quad; od <= objMin {
						jmin = t
						objMin = od
					}
				}
			}
		} else {
			if s.alpha[t] < s.c {
				gradDiff := gmax - s.g[t]
				if -s.g[t] >= gmax2 {
					gmax2 = -s.g[t]
				}
				if gradDiff > 0 {
					quad := s.qd[imax] + s.qd[t] + 2*yi*qi[t]
					if quad <= 0 {
						quad = tau
					}
					if od := -(gradDiff * gradDiff) / quad; od <= objMin {
						jmin = t
						objMin = od
					}
				}
			}
		}
	}
	if gmax+gmax2 < s.eps || jmin == -1 {
		return -1, -1, false
	}
	return imax, jmin, true
}

// update performs the analytic two-variable optimization and gradient
// maintenance, following LibSVM exactly (equal C for both classes).
func (s *smo64) update(i, j int) {
	qi := s.q.row(i)
	qj := s.q.row(j)
	c := s.c
	oldAi, oldAj := s.alpha[i], s.alpha[j]
	if s.y[i] != s.y[j] {
		quad := s.qd[i] + s.qd[j] + 2*qi[j]
		if quad <= 0 {
			quad = tau
		}
		delta := (-s.g[i] - s.g[j]) / quad
		diff := s.alpha[i] - s.alpha[j]
		s.alpha[i] += delta
		s.alpha[j] += delta
		if diff > 0 {
			if s.alpha[j] < 0 {
				s.alpha[j] = 0
				s.alpha[i] = diff
			}
		} else {
			if s.alpha[i] < 0 {
				s.alpha[i] = 0
				s.alpha[j] = -diff
			}
		}
		if diff > 0 {
			if s.alpha[i] > c {
				s.alpha[i] = c
				s.alpha[j] = c - diff
			}
		} else {
			if s.alpha[j] > c {
				s.alpha[j] = c
				s.alpha[i] = c + diff
			}
		}
	} else {
		quad := s.qd[i] + s.qd[j] - 2*qi[j]
		if quad <= 0 {
			quad = tau
		}
		delta := (s.g[i] - s.g[j]) / quad
		sum := s.alpha[i] + s.alpha[j]
		s.alpha[i] -= delta
		s.alpha[j] += delta
		if sum > c {
			if s.alpha[i] > c {
				s.alpha[i] = c
				s.alpha[j] = sum - c
			}
		} else {
			if s.alpha[j] < 0 {
				s.alpha[j] = 0
				s.alpha[i] = sum
			}
		}
		if sum > c {
			if s.alpha[j] > c {
				s.alpha[j] = c
				s.alpha[i] = sum - c
			}
		} else {
			if s.alpha[i] < 0 {
				s.alpha[i] = 0
				s.alpha[j] = sum
			}
		}
	}
	dai := s.alpha[i] - oldAi
	daj := s.alpha[j] - oldAj
	// Only active gradients are maintained; inactive ones are rebuilt by
	// reconstructGradient before they are consulted again.
	for _, t := range s.shrink.activeList {
		s.g[t] += qi[t]*dai + qj[t]*daj
	}
}

// rho computes the decision threshold from the converged state.
func (s *smo64) rho() float64 {
	ub := math.Inf(1)
	lb := math.Inf(-1)
	var sumFree float64
	nFree := 0
	for t, yt := range s.y {
		yg := float64(yt) * s.g[t]
		switch {
		case s.alpha[t] >= s.c:
			if yt == -1 {
				ub = math.Min(ub, yg)
			} else {
				lb = math.Max(lb, yg)
			}
		case s.alpha[t] <= 0:
			if yt == 1 {
				ub = math.Min(ub, yg)
			} else {
				lb = math.Max(lb, yg)
			}
		default:
			nFree++
			sumFree += yg
		}
	}
	if nFree > 0 {
		return sumFree / float64(nFree)
	}
	return (ub + lb) / 2
}

// objective returns the dual objective ½·Σ αᵢ(Gᵢ − 1).
func (s *smo64) objective() float64 {
	var obj float64
	for i, a := range s.alpha {
		obj += a * (s.g[i] - 1)
	}
	return obj / 2
}

// LibSVM is the baseline trainer: a re-implementation of LibSVM 3.x C-SVC
// in precomputed-kernel mode. Kernel rows are converted to double-precision
// node arrays up front (the "unnecessary data type conversions" of §3.3.3)
// and every Q-row construction walks the index/value pairs.
type LibSVM struct {
	svm.Params
	// CacheRows bounds the Q-row cache (LibSVM's kernel cache); 0 caches
	// every row.
	CacheRows int
	// Shrinking enables LibSVM's active-set shrinking heuristic
	// (Solver::do_shrinking): confidently bounded variables leave the
	// working problem, shortening every scan; the gradient is
	// reconstructed and optimality re-verified over the full set before
	// termination, so the solution is unchanged up to the tolerance.
	Shrinking bool
}

// TrainKernel implements KernelTrainer.
func (l LibSVM) TrainKernel(K *tensor.Matrix, labels []int, trainIdx []int) (*svm.Model, error) {
	y, err := labelsToY(labels, trainIdx)
	if err != nil {
		return nil, err
	}
	n := len(trainIdx)
	// Build node arrays: sample i's row holds K(trainIdx[i], j) for every
	// column j of the full kernel matrix, as LibSVM's precomputed format
	// stores full rows.
	nodes := make([][]node, n)
	for i, idx := range trainIdx {
		src := K.Row(idx)
		row := make([]node, len(src))
		for j, v := range src {
			row[j] = node{Index: int32(j), Value: float64(v)}
		}
		nodes[i] = row
	}
	qd := make([]float64, n)
	for i := range qd {
		qd[i] = lookupNode(nodes[i], int32(trainIdx[i]))
	}
	p := l.Params.Resolved(n)
	s := &smo64{
		y:         y,
		alpha:     make([]float64, n),
		g:         make([]float64, n),
		qd:        qd,
		c:         p.C,
		eps:       p.Eps,
		maxIter:   p.MaxIter,
		shrinking: l.Shrinking,
	}
	s.q = newQCache64(n, l.CacheRows, func(i int, dst []float64) {
		yi := float64(y[i])
		ni := nodes[i]
		for t := 0; t < n; t++ {
			dst[t] = yi * float64(y[t]) * lookupNode(ni, int32(trainIdx[t]))
		}
	})
	iters, err := s.solve()
	if err != nil {
		return nil, err
	}
	return finishModel(s, trainIdx, iters), nil
}

// labelsToY converts the training set's {0,1} labels into ±1, validating
// them and that both classes are present (svm.ErrOneClass otherwise, which
// cross-validation scores at chance).
func labelsToY(labels []int, trainIdx []int) ([]int8, error) {
	y := make([]int8, len(trainIdx))
	pos := 0
	for i, idx := range trainIdx {
		if idx < 0 || idx >= len(labels) {
			return nil, fmt.Errorf("baseline: training set: sample index %d out of range %d", idx, len(labels))
		}
		l := labels[idx]
		if l != 0 && l != 1 {
			return nil, fmt.Errorf("baseline: training set: label %d is not binary", l)
		}
		y[i] = int8(2*l - 1)
		pos += l
	}
	if pos == 0 || pos == len(trainIdx) {
		return nil, fmt.Errorf("%w (got %d positive, %d negative)", svm.ErrOneClass, pos, len(trainIdx)-pos)
	}
	return y, nil
}

// lookupNode finds the value at the given index via the scan-from-position
// access pattern node arrays force (indices here are dense, so the scan
// hits immediately, but every access still loads the index word — the
// indirection the paper's vectorization analysis points at).
func lookupNode(row []node, index int32) float64 {
	i := int(index)
	if i < len(row) && row[i].Index == index {
		return row[i].Value
	}
	for _, nd := range row {
		if nd.Index == index {
			return nd.Value
		}
	}
	return 0
}

func finishModel(s *smo64, trainIdx []int, iters int) *svm.Model {
	coef := make([]float64, len(trainIdx))
	for i, a := range s.alpha {
		coef[i] = a * float64(s.y[i])
	}
	return &svm.Model{
		TrainIdx:  append([]int(nil), trainIdx...),
		Coef:      coef,
		Rho:       s.rho(),
		Iters:     iters,
		Objective: s.objective(),
	}
}

var _ svm.KernelTrainer = LibSVM{}
