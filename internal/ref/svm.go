package ref

import (
	"fmt"
	"math"
)

const (
	// boxC is the SVM's box constraint, LibSVM's default and the engine's.
	boxC = 1.0
	// kktGap is the stopping tolerance: the largest violation of the KKT
	// conditions, max over I_up of −y·G minus min over I_low, a thousandth
	// of the engine's.
	kktGap = 1e-6
)

// CrossValidate trains a C-SVC on each training list train[f] of the
// kernel matrix K and predicts the samples of test[f]. It returns every
// test sample's decision value, decisions[f][k] for test[f][k], and the
// accuracy: the fraction of test samples whose predicted label (1 where
// the decision value is > 0) is labels[s]. A fold whose training set
// holds one class is not trained: its decisions are nil and it scores
// chance, half its test samples, as the engine scores it.
//
// Each fold is solved from α = 0 by plain first-order SMO in float64, to
// a KKT gap of 1e-6. A fold's kernel matrix is only positive
// semidefinite, so α is not unique; compare decision values and
// predictions with the engine's, never α.
func CrossValidate(K [][]float64, labels []int, train, test [][]int) (decisions [][]float64, accuracy float64, err error) {
	decisions = make([][]float64, len(train))
	var halves, total int
	for f, idx := range train {
		total += len(test[f])
		alpha, rho, err := solve(K, labels, idx)
		if err != nil {
			return nil, 0, fmt.Errorf("ref: fold %d: %w", f, err)
		}
		if alpha == nil {
			halves += len(test[f])
			continue
		}
		decisions[f] = make([]float64, len(test[f]))
		for k, s := range test[f] {
			d := -rho
			for i, a := range alpha {
				d += a * float64(2*labels[idx[i]]-1) * K[s][idx[i]]
			}
			decisions[f][k] = d
			if (d > 0) == (labels[s] == 1) {
				halves += 2
			}
		}
	}
	return decisions, float64(halves) / float64(2*total), nil
}

// solve minimises the dual ½αᵀQα − 1ᵀα, Q_ij = y_i·y_j·K_ij, over
// 0 ≤ α ≤ C and Σyα = 0, for the samples idx of K; it returns α and the
// threshold ρ of f(x) = Σ α_i·y_i·K(x_i, x) − ρ, or a nil α when idx holds
// one class. Each iteration moves the maximal violating pair (i, j) —
// i the argmax of −y·G over I_up = {y = +1, α < C} ∪ {y = −1, α > 0}, j
// the argmin over I_low, the same with the labels exchanged — along
// the direction that keeps Σyα fixed, as far as the exact line minimum or
// the box allows.
func solve(K [][]float64, labels []int, idx []int) (alpha []float64, rho float64, err error) {
	n := len(idx)
	y := make([]float64, n)
	pos := 0
	for i, s := range idx {
		y[i] = float64(2*labels[s] - 1)
		pos += labels[s]
	}
	if pos == 0 || pos == n {
		return nil, 0, nil
	}
	alpha = make([]float64, n)
	g := make([]float64, n) // the gradient Q·α − 1
	for i := range g {
		g[i] = -1
	}
	inUp := func(t int) bool { return (y[t] > 0 && alpha[t] < boxC) || (y[t] < 0 && alpha[t] > 0) }
	inLow := func(t int) bool { return (y[t] > 0 && alpha[t] > 0) || (y[t] < 0 && alpha[t] < boxC) }
	maxIter := max(10000000, 100*n)
	for iter := 0; ; iter++ {
		i, j := -1, -1
		for t := range n {
			if inUp(t) && (i < 0 || -y[t]*g[t] > -y[i]*g[i]) {
				i = t
			}
			if inLow(t) && (j < 0 || -y[t]*g[t] < -y[j]*g[j]) {
				j = t
			}
		}
		if i < 0 || j < 0 || -y[i]*g[i]+y[j]*g[j] < kktGap {
			return alpha, threshold(y, g, alpha), nil
		}
		if iter == maxIter {
			return nil, 0, fmt.Errorf("SMO did not reach a KKT gap of %g in %d iterations", kktGap, maxIter)
		}
		// α_i += y_i·d and α_j −= y_j·d: the objective falls by
		// d·(gap) − ½d²·curv, least at d = gap / curv, and d may not take
		// either α outside [0, C].
		Ki, Kj := K[idx[i]], K[idx[j]]
		curv := Ki[idx[i]] + Kj[idx[j]] - 2*Ki[idx[j]]
		d := math.Inf(1)
		if curv > 0 {
			d = (-y[i]*g[i] + y[j]*g[j]) / curv
		}
		ri, rj := room(y[i], alpha[i]), room(-y[j], alpha[j])
		d = min(d, ri, rj)
		alpha[i] += y[i] * d
		alpha[j] -= y[j] * d
		// A step the box stopped leaves that α on the bound exactly, not
		// an ulp inside it where it would stay in I_up or I_low.
		if d == ri {
			alpha[i] = bound(y[i])
		}
		if d == rj {
			alpha[j] = bound(-y[j])
		}
		// G_t += Q_ti·Δα_i + Q_tj·Δα_j = y_t·d·(K_ti − K_tj).
		for t := range n {
			g[t] += y[t] * d * (Ki[idx[t]] - Kj[idx[t]])
		}
	}
}

// room is how far α may move in direction dir (±1) inside [0, C], and
// bound the bound it meets.
func room(dir, a float64) float64 {
	return math.Abs(bound(dir) - a)
}

func bound(dir float64) float64 {
	if dir > 0 {
		return boxC
	}
	return 0
}

// threshold is ρ: the mean of y·G over the α strictly inside the box, or,
// when every α is at a bound, the midpoint of the interval those bounds
// leave for it.
func threshold(y, g, alpha []float64) float64 {
	var sum float64
	free := 0
	lo, hi := math.Inf(-1), math.Inf(1)
	for t := range y {
		yg := y[t] * g[t]
		switch {
		case alpha[t] > 0 && alpha[t] < boxC:
			sum += yg
			free++
		case (y[t] > 0) == (alpha[t] == 0):
			hi = min(hi, yg)
		default:
			lo = max(lo, yg)
		}
	}
	if free > 0 {
		return sum / float64(free)
	}
	return (lo + hi) / 2
}
