package svm

// The solver splits its precision as the paper's PhiSVM does: v and the
// masks, the n-long state the sweep streams, are 32-bit like the kernel;
// α, step's two-variable update, the seed's sums and ρ are float64.

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"fcma/internal/blas"
	"fcma/internal/tensor"
)

// smo32 is the dense solver, in three layers. reset compacts one fold's
// training sub-kernel into kd, a dense n×n float32 scratch, so no loop
// below it indexes a kernel row through idx: every row is read with unit
// stride (the paper's idea iii — no node indirection). step is the
// analytic two-variable update. sweep is the fused first-order iteration:
// one pass that maintains the gradient and carries the next
// maximal-violating pair (Keerthi et al. 2001), the one working-set rule
// the solver runs.
//
// The state is the one the sweep reads. v[t] = −y[t]·G[t] (float32, G the
// dual gradient) is the quantity the selection compares, so no loop
// multiplies by the label; outUp and outLow are the complements of the two
// membership sets as 32-bit all-ones / zero masks, which only step
// rewrites, at the two positions whose α it moved.
//
// A solver is reused, not rebuilt: solverPool hands one to each
// cross-validation call, reset re-aims it at each fold, and its scratch
// only ever grows.
type smo32 struct {
	// idx is the caller's training list (solver position → kernel index),
	// which decide and model read after solve. It is the solver's only
	// reference to caller memory, and putSolver drops it.
	idx []int

	n     int
	kd    []float32 // n×n: kd[i*n+t] = K[idx[i]][idx[t]]
	runs  []idxRun  // idx as maximal runs of consecutive kernel indices
	y     []float64 // ±1
	alpha []float64
	v     []float32 // −y·G = y − K·(α∘y)
	qd    []float64
	// byClass lists the positions of the positive samples, then of the
	// negative ones, each in ascending order: the rows classSums adds.
	byClass []int
	// outUp[t] is zero while t ∈ I_up = {y = +1, α < C} ∪ {y = −1, α > 0}
	// and all ones otherwise; outLow is the same for I_low, I_up with the
	// labels exchanged. That polarity is the assembly's: ORed into v[t] it
	// turns a sample outside the set into a NaN, which no ordered
	// comparison selects.
	outUp, outLow []uint32
	// coef = α·y and rho, set by finish: the classifier decide evaluates.
	coef []float64
	rho  float64
	// dir, free and q: the conjugate-gradient phase's state (conjugate).
	dir, free []float64
	q         []float32

	c       float64
	eps     float64
	maxIter int
	// lanes is the kernel path the solver runs, blas.Lanes at reset: the
	// Go loops at 0, the assembly loops at 8 and 16, the mat-vec's bands
	// and the row lists' compress on ZMM vectors at 16. The assembly
	// reads it here.
	lanes int
}

// idxRun is a maximal run of consecutive kernel indices in a training
// list: solver positions [pos, pos+n) hold kernel indices [src, src+n).
type idxRun struct{ pos, src, n int }

// solverPool holds one solver per concurrently running cross-validation —
// in effect one per stage-3 lane, as syrkPool does for the batched syrk. A
// pooled solver keeps its grown scratch and nothing else (putSolver). The
// scratch is 4n² + 96n + 144 bytes at the largest training set a solver has
// seen (33 KB at n = 80, 1.1 MB at the paper's attention n = 522); there
// is no size cap because sync.Pool already releases idle entries to the
// garbage collector.
var solverPool = sync.Pool{New: func() any { return new(smo32) }}

func getSolver() *smo32 { return solverPool.Get().(*smo32) }

// putSolver returns s to the pool without its reference to the caller's
// training list, so a lane that stays busy does not keep a finished
// task's memory alive. (The kernel matrix and the labels are never
// retained: reset copies what it needs out of them.)
func putSolver(s *smo32) {
	s.idx = nil
	solverPool.Put(s)
}

// grow sizes the scratch for a training set of n. It is the one place a
// solver allocates, and a warm solver does not reach it — kept out of
// line so that reset, the hot caller, holds no allocation site itself.
//
//go:noinline
func (s *smo32) grow(n int) {
	s.kd = make([]float32, n*n)
	s.runs = make([]idxRun, n)
	s.byClass = make([]int, n)
	s.y = make([]float64, n+3)
	s.alpha = make([]float64, n+3)
	s.v = make([]float32, n+3)
	s.qd = make([]float64, n)
	s.outUp = make([]uint32, n)
	s.outLow = make([]uint32, n)
	s.coef = make([]float64, n+3)
	s.dir, s.free, s.q = make([]float64, n+3), make([]float64, n+3), make([]float32, n+3)
}

// reset aims the solver at one training problem: samples trainIdx of the
// kernel matrix K, labels already validated (checkSamples) and holding
// both classes. It compacts the training sub-kernel into kd one maximal
// run of consecutive indices at a time — corr.BuildEpochStack requires
// epochs grouped by subject, so a leave-one-subject-out or k-fold training
// set is at most two runs and a row is two copy calls; any other list
// (reversed, strided, shuffled, repeated) degrades to runs of one, a
// gather done once per fold instead of twice per element per iteration.
// Then seed sets the start point.
func (s *smo32) reset(K *tensor.Matrix, labels []int, trainIdx []int, p Params) {
	n := len(trainIdx)
	if n+3 > cap(s.y) {
		s.grow(n)
	}
	s.idx, s.n, s.lanes = trainIdx, n, blas.Lanes()
	p = p.Resolved(n)
	s.c, s.eps, s.maxIter = p.C, p.Eps, p.MaxIter

	runs := s.runs[:n]
	nr := 0
	for i := 0; i < n; nr++ {
		j := i + 1
		for j < n && trainIdx[j] == trainIdx[j-1]+1 {
			j++
		}
		runs[nr] = idxRun{pos: i, src: trainIdx[i], n: j - i}
		i = j
	}
	runs = runs[:nr]
	s.runs = runs

	s.kd, s.y, s.alpha, s.v = s.kd[:n*n], s.y[:n], s.alpha[:n], s.v[:n]
	s.qd, s.coef, s.outUp, s.outLow = s.qd[:n], s.coef[:n], s.outUp[:n], s.outLow[:n]
	s.dir, s.free, s.q = s.dir[:n], s.free[:n], s.q[:n]
	np := 0
	for _, idx := range trainIdx {
		np += labels[idx]
	}
	byClass := s.byClass[:n]
	next := [2]int{np, 0} // the next slot of a negative, a positive sample
	for i, idx := range trainIdx {
		src := K.Row(idx)
		dst := s.kd[i*n : i*n+n]
		for _, r := range runs {
			copy(dst[r.pos:r.pos+r.n], src[r.src:r.src+r.n])
		}
		l := labels[idx]
		byClass[next[l]] = i
		next[l]++
		s.y[i] = float64(2*l - 1)
		s.qd[i] = float64(dst[i])
	}
	s.seed(np)
}

// seed starts the solve at the minimum of the dual ½αᵀQα − 1ᵀα along the
// class-balanced direction w: wᵢ = n₋ on a positive sample and n₊ on a
// negative one (np = n₊), so Σyw = n₋n₊ − n₊n₋ = 0 in integers and every
// point α = t·w of the ray is feasible. With c = y∘w and u = K·c, the
// objective there is ½t²q − tΣw for q = cᵀu, least at t = Σw / q; t is
// cut to C / max(n₊, n₋) where the box binds first. Then v = float32(y − t·u).
//
// A benchmark fold is a hard-margin problem whose optimal α is
// near-uniform within each class (most samples are support vectors, none
// at C), so that point is most of the way to the solution, and a solve
// from it takes a fraction of the iterations one from α = 0 does. When
// q is not a positive finite number — a zero kernel, a single class, a
// NaN or an infinite entry — the solve starts at α = 0 (v = y) instead.
//
// u is n₋·r₊ − n₊·r₋, where r± are the float64 column sums of the dense
// rows of each class (classSums). They accumulate in alpha and in coef,
// which finish overwrites, and u replaces r₋ there. Both passes over the
// samples go class by class down byClass: within a class, w, α and the
// masks are the same for every sample, and no branch asks for a label in
// an order a predictor cannot learn.
func (s *smo32) seed(np int) {
	n := s.n
	alpha, u, v := s.alpha[:n], s.coef[:n], s.v[:n]
	w := [2]float64{float64(np), float64(n - np)} // on a negative, a positive sample
	rows := [2][]int{s.byClass[np:n], s.byClass[:np]}
	if s.lanes > 0 {
		classSumsAVX2(s.kd[:n*n], s.byClass[:n], np, alpha, u)
	} else {
		classSums(s.kd[:n*n], s.byClass[:n], np, alpha, u)
	}
	var sum [2]float64 // Σu over each class
	for c := range rows {
		for _, k := range rows[c] {
			u[k] = float64(w[1]*alpha[k]) - float64(w[0]*u[k])
			sum[c] += u[k]
		}
	}
	q := float64(w[1]*sum[1]) - float64(w[0]*sum[0])
	if !(q > 0) || math.IsInf(q, 1) {
		for k, y := range s.y[:n] {
			alpha[k], v[k] = 0, float32(y)
			s.outUp[k], s.outLow[k] = outside(y, 0, s.c)
		}
		return
	}
	t := min(2*w[0]*w[1]/q, s.c/max(w[0], w[1]))
	for c, y := range [2]float64{-1, 1} {
		a := min(t*w[c], s.c)
		up, low := outside(y, a, s.c)
		for _, k := range rows[c] {
			alpha[k] = a
			v[k] = float32(y - float64(t*u[k]))
			s.outUp[k], s.outLow[k] = up, low
		}
	}
}

// classSums sets rp and rm to the column sums of the dense kernel rows of
// each class: the rows listed in rows[:np] and in rows[np:], each added
// into a sum that starts at zero in the order listed. It is the reference
// and the only path off amd64; classSumsAVX2 makes the same adds, a block
// of columns at a time, bit for bit.
func classSums(kd []float32, rows []int, np int, rp, rm []float64) {
	n := len(rows)
	for c, r := range [2][]float64{rp[:n], rm[:n]} {
		clear(r)
		for _, i := range [2][]int{rows[:np], rows[np:]}[c] {
			for t, k := range kd[i*n : i*n+n] {
				r[t] += float64(k)
			}
		}
	}
}

// row returns dense kernel row i: K(position i, position t) at [t].
func (s *smo32) row(i int) []float32 {
	return s.kd[i*s.n : i*s.n+s.n]
}

// ErrNoConverge is what a solver that runs out of iterations wraps.
// Cross-validation scores such a fold at chance; every other training
// error it returns to its caller.
var ErrNoConverge = errors.New("svm: SMO failed to converge")

// solve runs the solver to convergence: SMO iterations and mat-vecs.
func (s *smo32) solve() (iters, steps int, err error) {
	iters, steps, converged := s.solveFused()
	if !converged {
		return iters, steps, fmt.Errorf("%w in %d iterations", ErrNoConverge, iters)
	}
	return iters, steps, nil
}

// solveChunk bounds the iterations of one solveAVX2 call. Assembly has no
// preemption points, so a fold that runs to the default MaxIter of 10⁷
// would otherwise hold off a garbage collection for seconds; 8192
// iterations are under 3 ms at the paper's n = 522, and every fold of the
// benchmark shapes converges inside one call.
const solveChunk = 1 << 13

// solveFused is the first-order loop: one plain selection before the
// first step, then each step's sweep hands over the next pair, and a step
// that moved nothing leaves the state, and with it the pair, as they were.
// On a vector kernel path the loop itself runs in assembly, a chunk of
// iterations a call.
// A fold open after 2n iterations runs conjugate; the loop then resumes.
func (s *smo32) solveFused() (iters, steps int, converged bool) {
	i, j, ok := s.selectPair()
	for budget := min(2*s.n, s.maxIter); ; budget = s.maxIter {
		for ok && iters < budget {
			done := 1
			if s.lanes > 0 {
				done, i, j, ok = solveAVX2(s, i, j, min(budget-iters, solveChunk))
			} else if cyi, cyj, moved := s.step(i, j); moved {
				i, j, ok = s.sweep(i, j, cyi, cyj)
			}
			iters += done
		}
		if !ok || budget == s.maxIter {
			return iters, steps, iters < s.maxIter
		}
		steps = s.conjugate()
		i, j, ok = s.selectPair()
	}
}

func (s *smo32) selectPair() (int, int, bool) {
	if s.lanes > 0 {
		return selectAVX2(s)
	}
	return s.selectFirstOrder()
}

// selectFirstOrder implements the maximal-violating-pair rule.
func (s *smo32) selectFirstOrder() (int, int, bool) {
	gmax, gmin, imax, jmin := float32(math.Inf(-1)), float32(math.Inf(1)), -1, -1
	for t, vt := range s.v {
		if vt >= gmax && s.outUp[t] == 0 {
			gmax, imax = vt, t
		}
		if vt <= gmin && s.outLow[t] == 0 {
			gmin, jmin = vt, t
		}
	}
	if imax == -1 || jmin == -1 || float64(gmax)-float64(gmin) < s.eps {
		return -1, -1, false
	}
	return imax, jmin, true
}

// outside reports whether a sample with label y and multiplier alpha is
// outside I_up and outside I_low, as the masks outUp and outLow store it.
func outside(y, alpha, c float64) (outUp, outLow uint32) {
	if !inUp(y, alpha, c) {
		outUp = ^uint32(0)
	}
	if !inUp(-y, alpha, c) {
		outLow = ^uint32(0)
	}
	return outUp, outLow
}

// inUp reports membership of I_up = {y = +1, α < C} ∪ {y = −1, α > 0};
// I_low is I_up with the labels exchanged.
func inUp(y, alpha, c float64) bool {
	if y > 0 {
		return alpha < c
	}
	return alpha > 0
}

// step is the analytic two-variable update of α at the working pair
// (i, j): both move along d = (v[i] − v[j]) / (K_ii + K_jj − 2K_ij), αᵢ by
// +yᵢ·d and αⱼ by −yⱼ·d, and are then clipped to the box in LibSVM's
// order. It rewrites the membership masks at i and j, and reports whether
// either α moved and, if so, the two coefficients Δαᵢ·yᵢ and Δαⱼ·yⱼ the
// caller owes every v[t], each rounded once to the sweep's float32.
func (s *smo32) step(i, j int) (cyi, cyj float32, moved bool) {
	c := s.c
	yi, yj := s.y[i], s.y[j]
	quad := s.qd[i] + s.qd[j] - 2*float64(s.kd[i*s.n+j])
	if quad <= 0 {
		quad = tau
	}
	d := (float64(s.v[i]) - float64(s.v[j])) / quad
	oldAi, oldAj := s.alpha[i], s.alpha[j]
	ai, aj := oldAi+yi*d, oldAj-yj*d
	if yi != yj {
		diff := oldAi - oldAj
		if diff > 0 {
			if aj < 0 {
				aj = 0
				ai = diff
			}
		} else if ai < 0 {
			ai = 0
			aj = -diff
		}
		if diff > 0 {
			if ai > c {
				ai = c
				aj = c - diff
			}
		} else if aj > c {
			aj = c
			ai = c + diff
		}
	} else {
		sum := oldAi + oldAj
		if sum > c {
			if ai > c {
				ai = c
				aj = sum - c
			}
		} else if aj < 0 {
			aj = 0
			ai = sum
		}
		if sum > c {
			if aj > c {
				aj = c
				ai = sum - c
			}
		} else if ai < 0 {
			ai = 0
			aj = sum
		}
	}
	s.alpha[i], s.alpha[j] = ai, aj
	s.outUp[i], s.outLow[i] = outside(yi, ai, c)
	s.outUp[j], s.outLow[j] = outside(yj, aj, c)
	dai := ai - oldAi
	daj := aj - oldAj
	if dai == 0 && daj == 0 {
		return 0, 0, false
	}
	return float32(dai * yi), float32(daj * yj), true
}

// threshold is LibSVM's ρ: the mean of y·G = −v over the free α, or the
// midpoint of the bounds the α at 0 and at C put on it. A bounded sample
// is in exactly one of the two sets.
func (s *smo32) threshold() float64 {
	ub, lb := math.Inf(1), math.Inf(-1)
	var sumFree float64
	nFree := 0
	for t, vt := range s.v {
		switch yg := -float64(vt); {
		case s.outLow[t] != 0:
			ub = math.Min(ub, yg)
		case s.outUp[t] != 0:
			lb = math.Max(lb, yg)
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
		obj += a * (-s.y[i]*float64(s.v[i]) - 1)
	}
	return obj / 2
}

// finish turns the converged state into the classifier decide evaluates.
func (s *smo32) finish() {
	for i, a := range s.alpha {
		s.coef[i] = a * s.y[i]
	}
	s.rho = s.threshold()
}

// decide is Model.Decide on the solver's own state, so cross-validation
// scores a fold without building a Model.
func (s *smo32) decide(K *tensor.Matrix, t int) float64 {
	return decision(s.coef, s.idx, K.Row(t), s.rho)
}

const decideLanes = 16

// decideAll sets d[l] = decide(K, test[l]) for up to decideLanes samples,
// which runFolds has checked are in K; on a vector kernel path in one
// pass, a lane per sample, reading K's rows (so K need not be symmetric).
func (s *smo32) decideAll(K *tensor.Matrix, test []int, d *[decideLanes]float64) {
	if s.lanes == 0 || K.Rows*K.Stride > math.MaxInt32 {
		for l, t := range test {
			d[l] = s.decide(K, t)
		}
		return
	}
	decideAVX2(s.coef[:s.n], s.idx, K.Data, K.Stride, test, s.rho, d)
}

// model copies the finished classifier out of the solver's scratch.
func (s *smo32) model(iters int) *Model {
	return &Model{
		TrainIdx:  append([]int(nil), s.idx...),
		Coef:      append([]float64(nil), s.coef...),
		Rho:       s.rho,
		Iters:     iters,
		Objective: s.objective(),
	}
}

// PhiSVM is the paper's optimized solver (§4.4): the dense float32 kernel
// under the first-order working-set rule.
type PhiSVM struct {
	Params
}

// TrainKernel implements KernelTrainer: a pooled solver, then one Model
// built from it.
func (p PhiSVM) TrainKernel(K *tensor.Matrix, labels []int, trainIdx []int) (*Model, error) {
	if err := checkTrainingSet(labels, trainIdx); err != nil {
		return nil, err
	}
	s := getSolver()
	defer putSolver(s)
	s.reset(K, labels, trainIdx, p.Params)
	iters, _, err := s.solve()
	if err != nil {
		return nil, err
	}
	s.finish()
	return s.model(iters), nil
}

var _ KernelTrainer = PhiSVM{}
