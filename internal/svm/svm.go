// Package svm implements FCMA's third pipeline stage: linear support
// vector machine training and cross-validation over precomputed kernel
// matrices, one small SVM problem per voxel.
//
// One trainer, PhiSVM, is the Catanzaro-style solver the paper ports from
// CUDA (§4.4): float32, dense precomputed kernel with unit-stride row
// access, under one working-set rule — the first-order maximal-violating
// pair of Keerthi et al. (2001). The double-precision node-array LibSVM
// re-implementation Table 8 measures it against lives with the other
// comparators in internal/baseline. There is no rule option: a dense
// second-order rule (Fan, Chen, Lin 2005) and an adaptive choice between
// the two measured 5–6× slower per voxel at equal accuracy and about the
// same iteration counts (EXPERIMENTS.md "At PR 28").
//
// The solver, smo32, is reused through a pool: per fold it compacts the
// training sub-kernel into a dense float32 scratch and starts at the
// minimum of the dual along the class-balanced ray, and its iteration is
// one fused pass that updates the gradient and selects the next working
// pair, over state kept in the form that pass reads — in Go, and as one
// AVX2 assembly loop per fold pinned to the Go loop bit for bit (DESIGN.md
// §17). The precision split is PhiSVM's: that state (v = −y·G and two
// membership masks) is 32-bit like the kernel, eight lanes to a YMM
// register, while α and the two-variable step are float64. The unfused
// select-then-update loop both paths are pinned to is the tests' oracle.
// Unlike the paper's SMO-only PhiSVM, a fold open after 2n iterations
// finishes by conjugate gradient, and SMO resumes as the only judge.
//
// CrossValidateContext and CrossValidateDetailed share one fold loop.
// Invalid input — an index outside the kernel, a label that is not 0 or 1,
// a trainer's own error — is returned as an error; only a single-class
// training set or a solver that runs out of iterations makes a
// degenerate fold, which scores chance.
package svm

import (
	"errors"
	"fmt"

	"fcma/internal/blas"
	"fcma/internal/tensor"
)

// Params configures a C-SVC training run.
type Params struct {
	// C is the box constraint; 0 selects defaultC.
	C float64
	// Eps is the KKT violation tolerance for convergence; 0 selects
	// defaultEps (LibSVM's 1e-3).
	Eps float64
	// MaxIter caps SMO iterations; 0 selects a LibSVM-style bound of
	// max(10^7, 100·n).
	MaxIter int
}

// defaultC matches LibSVM's default box constraint.
const defaultC = 1.0

// defaultEps matches LibSVM's default stopping tolerance.
const defaultEps = 1e-3

// tau is the curvature floor for non-positive-definite pairs, as in LibSVM.
const tau = 1e-12

// Resolved returns p with every unset field replaced by its default for a
// training set of n samples — what a solver actually runs with.
func (p Params) Resolved(n int) Params {
	if p.C <= 0 {
		p.C = defaultC
	}
	if p.Eps <= 0 {
		p.Eps = defaultEps
	}
	if p.MaxIter <= 0 {
		p.MaxIter = max(10000000, 100*n)
	}
	return p
}

// KernelTrainer trains a binary classifier from a precomputed kernel
// matrix restricted to the given training sample indices.
type KernelTrainer interface {
	// TrainKernel trains on samples trainIdx (indices into K's rows and
	// labels), where K is the full M×M kernel matrix and labels[i] ∈ {0,1}.
	TrainKernel(K *tensor.Matrix, labels []int, trainIdx []int) (*Model, error)
}

// Model is a trained kernel-space classifier.
type Model struct {
	// TrainIdx are the kernel-matrix indices of the training samples.
	TrainIdx []int
	// Coef[i] = αᵢ·yᵢ for training sample i (zero for non-support
	// vectors).
	Coef []float64
	// Rho is the decision threshold: f(x) = Σ Coef[i]·K(xᵢ, x) − Rho.
	Rho float64
	// Iters is the number of SMO iterations the solver used.
	Iters int
	// Objective is the final dual objective value.
	Objective float64
}

// Decide evaluates the decision value for kernel-matrix sample t.
func (m *Model) Decide(K *tensor.Matrix, t int) float64 {
	return decision(m.Coef, m.TrainIdx, K.Row(t), m.Rho)
}

// decision is Σ coef[i]·row[idx[i]] over coef ≠ 0 in order, minus rho,
// each product rounded by its conversion so that no build fuses the add.
// The sum is float64 for stability; only its sign classifies.
func decision(coef []float64, idx []int, row []float32, rho float64) float64 {
	var sum float64
	for i, k := range idx {
		if c := coef[i]; c != 0 {
			sum += float64(c * float64(row[k]))
		}
	}
	return sum - rho
}

// Predict returns the predicted label (0 or 1) for kernel-matrix sample t.
func (m *Model) Predict(K *tensor.Matrix, t int) int {
	if m.Decide(K, t) > 0 {
		return 1
	}
	return 0
}

// PrecomputeKernel computes the linear kernel matrix K = X·Xᵀ of the M×N
// sample matrix X with the paper's tall-skinny blocked syrk.
func PrecomputeKernel(X *tensor.Matrix) *tensor.Matrix {
	K := tensor.NewMatrix(X.Rows, X.Rows)
	blas.TallSkinny{}.Syrk(K, X)
	return K
}

// ErrOneClass is what a TrainKernel handed a single-class training set
// wraps. Cross-validation scores such a fold at chance.
var ErrOneClass = errors.New("svm: training set needs both classes")

// checkSamples rejects a sample list that names an index outside the
// kernel or a sample whose label is not 0 or 1.
func checkSamples(labels []int, idx []int) error {
	for _, i := range idx {
		if i < 0 || i >= len(labels) {
			return fmt.Errorf("sample index %d out of range %d", i, len(labels))
		}
		if l := labels[i]; l != 0 && l != 1 {
			return fmt.Errorf("label %d is not binary", l)
		}
	}
	return nil
}

// countPositive returns how many of the (checked) samples have label 1.
func countPositive(labels []int, idx []int) int {
	pos := 0
	for _, i := range idx {
		pos += labels[i]
	}
	return pos
}

// checkTrainingSet is what every TrainKernel demands of its input: valid
// samples and both classes among them.
func checkTrainingSet(labels []int, trainIdx []int) error {
	if err := checkSamples(labels, trainIdx); err != nil {
		return fmt.Errorf("svm: training set: %w", err)
	}
	if pos := countPositive(labels, trainIdx); pos == 0 || pos == len(trainIdx) {
		return fmt.Errorf("%w (got %d positive, %d negative)", ErrOneClass, pos, len(trainIdx)-pos)
	}
	return nil
}
