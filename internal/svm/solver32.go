package svm

// The float32-kernel SMO solver deliberately keeps its alpha/gradient
// state in float64, matching LIBSVM practice: the kernel matrix stays
// float32 (the paper's determinism contract) while the iterative
// optimizer accumulates in double so convergence is stable. The whole
// file is annotated rather than each of the ~45 sites.
//
//lint:file-allow f32purity deliberate float64 alpha/gradient accumulation per LIBSVM practice; kernel data stays float32

import (
	"fmt"
	"math"

	"fcma/internal/tensor"
)

// Heuristic selects a working-set-selection rule for the dense solver.
type Heuristic int

const (
	// FirstOrder is the maximal-violating-pair rule (Keerthi et al. 2001):
	// cheap per iteration, often more iterations. It is the zero value
	// and so what PhiSVM{} runs.
	FirstOrder Heuristic = iota
	// SecondOrder is the Fan/Chen/Lin 2005 rule LibSVM defaults to:
	// costlier per iteration, usually fewer iterations.
	SecondOrder
	// Adaptive alternates probe phases and settles on whichever rule is
	// reducing the dual objective faster, re-probing periodically — the
	// strategy of the GPU solver of Catanzaro et al. that the paper's
	// PhiSVM ports. It runs only where PhiSVM.Rule asks for it.
	Adaptive
)

// String implements fmt.Stringer.
func (h Heuristic) String() string {
	switch h {
	case FirstOrder:
		return "first-order"
	case SecondOrder:
		return "second-order"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// adaptPhase is the number of SMO iterations per adaptive probe phase.
const adaptPhase = 64

// smo32 is the dense solver: kernel values stay in the float32 matrix and
// are read with unit stride (no node indirection); solver state uses
// float64 accumulation for stability. The working-set rule is pluggable.
type smo32 struct {
	k       *tensor.Matrix // full kernel matrix
	idx     []int          // trainIdx: solver position -> kernel index
	y       []int8
	yf      []float32
	alpha   []float64
	g       []float64
	qd      []float64
	c       float64
	eps     float64
	maxIter int
	rule    Heuristic
	// adaptive state
	rate     [2]float64 // EWMA of objective decrease per phase, per rule
	probed   [2]bool
	current  Heuristic
	phaseObj float64
	phaseIt  int
	sincePro int
	// SelectedRules counts iterations spent under each rule (diagnostics).
	selected [2]int
}

func newSMO32(K *tensor.Matrix, labels []int, trainIdx []int, p Params, rule Heuristic) (*smo32, error) {
	y, err := labelsToY(labels, trainIdx)
	if err != nil {
		return nil, err
	}
	n := len(trainIdx)
	s := &smo32{
		k:       K,
		idx:     trainIdx,
		y:       y,
		yf:      make([]float32, n),
		alpha:   make([]float64, n),
		g:       make([]float64, n),
		qd:      make([]float64, n),
		c:       p.c(),
		eps:     p.eps(),
		maxIter: p.maxIter(n),
		rule:    rule,
		current: SecondOrder,
	}
	for i, yi := range y {
		s.yf[i] = float32(yi)
		s.qd[i] = float64(K.At(trainIdx[i], trainIdx[i]))
		s.g[i] = -1
	}
	return s, nil
}

// kval returns K(solver-position i, solver-position t).
func (s *smo32) kval(i, t int) float64 {
	return float64(s.k.Data[s.idx[i]*s.k.Stride+s.idx[t]])
}

func (s *smo32) solve() (int, error) {
	s.phaseObj = 0
	for iter := 0; iter < s.maxIter; iter++ {
		rule := s.activeRule(iter)
		var i, j int
		var ok bool
		if rule == FirstOrder {
			i, j, ok = s.selectFirstOrder()
		} else {
			i, j, ok = s.selectSecondOrder()
		}
		if !ok {
			return iter, nil
		}
		s.selected[rule]++
		s.update(i, j)
	}
	return s.maxIter, fmt.Errorf("svm: SMO failed to converge in %d iterations", s.maxIter)
}

// activeRule returns the working-set rule for this iteration, running the
// adaptive probe/commit state machine when the solver is in Adaptive mode.
func (s *smo32) activeRule(iter int) Heuristic {
	if s.rule != Adaptive {
		return s.rule
	}
	if s.phaseIt == 0 {
		s.phaseObj = s.objective()
	}
	s.phaseIt++
	if s.phaseIt < adaptPhase {
		return s.current
	}
	// Phase boundary: record this rule's objective-decrease rate.
	obj := s.objective()
	decrease := s.phaseObj - obj
	r := int(s.current)
	if s.probed[r] {
		s.rate[r] = 0.5*s.rate[r] + 0.5*decrease
	} else {
		s.rate[r] = decrease
		s.probed[r] = true
	}
	s.phaseIt = 0
	s.sincePro++
	switch {
	case !s.probed[FirstOrder]:
		s.current = FirstOrder
	case !s.probed[SecondOrder]:
		s.current = SecondOrder
	case s.sincePro >= 8:
		// Periodic re-probe of the rule not currently in use.
		s.sincePro = 0
		if s.current == FirstOrder {
			s.current = SecondOrder
		} else {
			s.current = FirstOrder
		}
	default:
		if s.rate[FirstOrder] > s.rate[SecondOrder] {
			s.current = FirstOrder
		} else {
			s.current = SecondOrder
		}
	}
	return s.current
}

// selectFirstOrder implements the maximal-violating-pair rule.
func (s *smo32) selectFirstOrder() (int, int, bool) {
	gmax := math.Inf(-1)
	gmin := math.Inf(1)
	imax, jmin := -1, -1
	for t, yt := range s.y {
		if yt == 1 {
			if s.alpha[t] < s.c && -s.g[t] >= gmax {
				gmax = -s.g[t]
				imax = t
			}
			if s.alpha[t] > 0 && -s.g[t] <= gmin {
				gmin = -s.g[t]
				jmin = t
			}
		} else {
			if s.alpha[t] > 0 && s.g[t] >= gmax {
				gmax = s.g[t]
				imax = t
			}
			if s.alpha[t] < s.c && s.g[t] <= gmin {
				gmin = s.g[t]
				jmin = t
			}
		}
	}
	if imax == -1 || jmin == -1 || gmax-gmin < s.eps {
		return -1, -1, false
	}
	return imax, jmin, true
}

// selectSecondOrder implements WSS2 over the dense kernel.
func (s *smo32) selectSecondOrder() (int, int, bool) {
	gmax := math.Inf(-1)
	gmax2 := math.Inf(-1)
	imax := -1
	for t, yt := range s.y {
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
	ki := s.k.Row(s.idx[imax])
	jmin := -1
	objMin := math.Inf(1)
	for t, yt := range s.y {
		// a_it = K_ii + K_tt − 2K_it = ‖φ(xᵢ)−φ(xₜ)‖², label-independent.
		kit := float64(ki[s.idx[t]])
		if yt == 1 {
			if s.alpha[t] > 0 {
				gradDiff := gmax + s.g[t]
				if s.g[t] >= gmax2 {
					gmax2 = s.g[t]
				}
				if gradDiff > 0 {
					quad := s.qd[imax] + s.qd[t] - 2*kit
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
					quad := s.qd[imax] + s.qd[t] - 2*kit
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

func (s *smo32) update(i, j int) {
	c := s.c
	yi, yj := s.y[i], s.y[j]
	kii, kjj, kij := s.qd[i], s.qd[j], s.kval(i, j)
	oldAi, oldAj := s.alpha[i], s.alpha[j]
	if yi != yj {
		// Q_ii + Q_jj + 2Q_ij = K_ii + K_jj − 2K_ij for opposite labels.
		quad := kii + kjj - 2*kij
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
		} else if s.alpha[i] < 0 {
			s.alpha[i] = 0
			s.alpha[j] = -diff
		}
		if diff > 0 {
			if s.alpha[i] > c {
				s.alpha[i] = c
				s.alpha[j] = c - diff
			}
		} else if s.alpha[j] > c {
			s.alpha[j] = c
			s.alpha[i] = c + diff
		}
	} else {
		quad := kii + kjj - 2*kij
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
		} else if s.alpha[j] < 0 {
			s.alpha[j] = 0
			s.alpha[i] = sum
		}
		if sum > c {
			if s.alpha[j] > c {
				s.alpha[j] = c
				s.alpha[i] = sum - c
			}
		} else if s.alpha[i] < 0 {
			s.alpha[i] = 0
			s.alpha[j] = sum
		}
	}
	dai := s.alpha[i] - oldAi
	daj := s.alpha[j] - oldAj
	if dai == 0 && daj == 0 {
		return
	}
	// Gradient maintenance: G_t += Q_ti·Δαi + Q_tj·Δαj. The kernel rows
	// are read densely with unit stride — the paper's optimization idea #3
	// (the hot loop PhiSVM vectorizes).
	ki := s.k.Row(s.idx[i])
	kj := s.k.Row(s.idx[j])
	cyi := dai * float64(yi)
	cyj := daj * float64(yj)
	for t, yt := range s.yf {
		kti := float64(ki[s.idx[t]])
		ktj := float64(kj[s.idx[t]])
		s.g[t] += float64(yt) * (cyi*kti + cyj*ktj)
	}
}

func (s *smo32) rho() float64 {
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

func (s *smo32) objective() float64 {
	var obj float64
	for i, a := range s.alpha {
		obj += a * (s.g[i] - 1)
	}
	return obj / 2
}

func (s *smo32) model(iters int) *Model {
	coef := make([]float64, len(s.idx))
	for i, a := range s.alpha {
		coef[i] = a * float64(s.y[i])
	}
	return &Model{
		TrainIdx:  append([]int(nil), s.idx...),
		Coef:      coef,
		Rho:       s.rho(),
		Iters:     iters,
		Objective: s.objective(),
	}
}

// Optimized is the paper's "optimized LibSVM": the identical SMO algorithm
// and second-order rule, but the kernel stays in the dense float32 matrix
// and is read with unit stride instead of through node arrays.
type Optimized struct {
	Params
}

// TrainKernel implements KernelTrainer.
func (o Optimized) TrainKernel(K *tensor.Matrix, labels []int, trainIdx []int) (*Model, error) {
	s, err := newSMO32(K, labels, trainIdx, o.Params, SecondOrder)
	if err != nil {
		return nil, err
	}
	iters, err := s.solve()
	if err != nil {
		return nil, err
	}
	return s.model(iters), nil
}

// PhiSVM is the paper's optimized solver (§4.4): the dense float32 kernel
// with the cheap first-order working-set rule by default, and the
// Catanzaro-style adaptive first/second-order rule on request.
type PhiSVM struct {
	Params
	// Rule is the working-set rule. The zero value is FirstOrder, which
	// is what every production caller runs: on both benchmark shapes it
	// is the fastest of the three rules at the same accuracy
	// (EXPERIMENTS.md, Table 8). SecondOrder and Adaptive are there for
	// the ablation benchmarks.
	Rule Heuristic
}

// TrainKernel implements KernelTrainer.
func (p PhiSVM) TrainKernel(K *tensor.Matrix, labels []int, trainIdx []int) (*Model, error) {
	rule := p.Rule
	if rule != FirstOrder && rule != SecondOrder {
		rule = Adaptive // including values that name no rule
	}
	s, err := newSMO32(K, labels, trainIdx, p.Params, rule)
	if err != nil {
		return nil, err
	}
	iters, err := s.solve()
	if err != nil {
		return nil, err
	}
	return s.model(iters), nil
}

var (
	_ KernelTrainer = Optimized{}
	_ KernelTrainer = PhiSVM{}
)
