package svm

import "fcma/internal/tensor"

// FoldStats is the outcome of one cross-validation fold.
type FoldStats struct {
	// Correct and Total count test predictions.
	Correct, Total int
	// Confusion[i][j] counts test samples of true label i predicted j.
	Confusion [2][2]int
	// Iters and CGSteps count the solver's SMO iterations and mat-vecs;
	// Degenerate marks a fold that was not trained (single-class training
	// set, or the solver ran out of iterations). Such a fold scores chance,
	// exactly half its Total; its Correct is that rounded down, its counts 0.
	Iters, CGSteps int
	Degenerate     bool
}

// Accuracy returns the fold's test accuracy.
func (f FoldStats) Accuracy() float64 {
	var t cvTally
	t.add(f)
	return t.accuracy()
}

// CVStats aggregates a detailed cross-validation run.
type CVStats struct {
	Folds []FoldStats
}

// Accuracy returns the pooled accuracy across folds (the quantity FCMA
// assigns to a voxel).
func (s CVStats) Accuracy() float64 {
	var t cvTally
	for _, f := range s.Folds {
		t.add(f)
	}
	return t.accuracy()
}

// Confusion returns the pooled confusion matrix.
func (s CVStats) Confusion() [2][2]int {
	var out [2][2]int
	for _, f := range s.Folds {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				out[i][j] += f.Confusion[i][j]
			}
		}
	}
	return out
}

// TotalIters returns the summed SMO iteration count (svm.iters_per_voxel
// in the repo benchmark's traced run), a part of the cost: see TotalCGSteps.
func (s CVStats) TotalIters() int {
	n := 0
	for _, f := range s.Folds {
		n += f.Iters
	}
	return n
}

// TotalCGSteps returns the summed mat-vec count, each ≈ n/4 iterations.
func (s CVStats) TotalCGSteps() int {
	n := 0
	for _, f := range s.Folds {
		n += f.CGSteps
	}
	return n
}

// CrossValidateDetailed is CrossValidateContext with per-fold statistics
// instead of a span: confusion matrices, iteration counts, and
// degenerate-fold marking. It runs the same loop on the same solver, so its
// Accuracy is CrossValidateContext's to the last bit and its iteration
// counts are production's.
func CrossValidateDetailed(tr KernelTrainer, K *tensor.Matrix, labels []int, folds []Fold) (CVStats, error) {
	stats := CVStats{Folds: make([]FoldStats, 0, len(folds))}
	if _, err := runFolds(tr, K, labels, folds, &stats.Folds); err != nil {
		return CVStats{}, err
	}
	return stats, nil
}
