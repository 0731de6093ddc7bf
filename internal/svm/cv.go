package svm

import (
	"context"
	"errors"
	"fmt"

	"fcma/internal/obs"
	"fcma/internal/obs/trace"
	"fcma/internal/tensor"
)

// CV health counters in the process-wide registry, counted in the one fold
// loop (runFolds). One cross-validation call is one voxel's stage-3 work,
// so these count voxels, folds with test samples, and the folds among
// them scored at chance as degenerate (single-class training set, or a
// solver out of iterations) across the run.
var (
	obsCVRuns       = obs.Default().Counter("svm_cv_runs_total")
	obsCVFolds      = obs.Default().Counter("svm_cv_folds_total")
	obsCVDegenerate = obs.Default().Counter("svm_cv_degenerate_folds_total")
)

// Fold is one cross-validation split over kernel-matrix sample indices.
type Fold struct {
	Train []int
	Test  []int
}

// LeaveOneSubjectOutFolds builds one fold per subject: the fold's test set
// is that subject's samples, its training set everyone else's. subjects[i]
// gives the subject of sample i.
func LeaveOneSubjectOutFolds(subjects []int) []Fold {
	bySubject := make(map[int][]int)
	var order []int
	for i, s := range subjects {
		if _, ok := bySubject[s]; !ok {
			order = append(order, s)
		}
		bySubject[s] = append(bySubject[s], i)
	}
	folds := make([]Fold, 0, len(order))
	for _, s := range order {
		f := Fold{Test: bySubject[s]}
		for _, other := range order {
			if other != s {
				f.Train = append(f.Train, bySubject[other]...)
			}
		}
		folds = append(folds, f)
	}
	return folds
}

// KFolds builds k sequential folds over n samples (for single-subject
// online analysis, where leave-one-subject-out degenerates).
func KFolds(n, k int) []Fold {
	if k <= 1 || k > n {
		k = min(n, 2)
	}
	folds := make([]Fold, k)
	for i := 0; i < n; i++ {
		f := i * k / n
		folds[f].Test = append(folds[f].Test, i)
	}
	for fi := range folds {
		inTest := make(map[int]bool, len(folds[fi].Test))
		for _, t := range folds[fi].Test {
			inTest[t] = true
		}
		for i := 0; i < n; i++ {
			if !inTest[i] {
				folds[fi].Train = append(folds[fi].Train, i)
			}
		}
	}
	return folds
}

// CrossValidateContext trains on each fold and returns the overall
// accuracy: the fraction of test samples across all folds whose predicted
// label matches. It records an "svm/cv" span (fold, degenerate-fold and
// conjugate-gradient mat-vec counts as attributes) when ctx carries a
// tracer — the stage-3 per-voxel unit of the merged timeline. The solver
// itself is not cancellable; ctx is tracing context only.
//
// A degenerate fold — a training set with one class only, or a solver
// that ran out of MaxIter — scores chance: half its test samples count
// as correct. Invalid input is an error, not a degenerate fold: a kernel
// that is not len(labels) square, no folds or no test samples, a Train or
// Test index outside the kernel, a label on a listed sample that is not 0
// or 1, and any other error a trainer returns.
//
// PhiSVM folds run on one pooled solver that predicts from its own state,
// so a warm call allocates nothing; any other trainer goes through
// TrainKernel and Model.Decide.
func CrossValidateContext(ctx context.Context, tr KernelTrainer, K *tensor.Matrix, labels []int, folds []Fold) (float64, error) {
	_, span := trace.StartSpan(ctx, "svm/cv")
	defer span.End()
	t, err := runFolds(tr, K, labels, folds, nil)
	if err != nil {
		return 0, err
	}
	span.SetInt("folds", len(folds))
	span.SetInt("degenerate", t.degenerate)
	span.SetInt("cg_steps", t.cgSteps)
	return t.accuracy(), nil
}

// cvTally is a cross-validation run's score so far, in half test samples
// so that a degenerate fold of odd size scores exactly half.
type cvTally struct {
	halves, total, degenerate, cgSteps int
}

func (t *cvTally) add(f FoldStats) {
	t.total += f.Total
	t.cgSteps += f.CGSteps
	if f.Degenerate {
		t.halves += f.Total
		t.degenerate++
	} else {
		t.halves += 2 * f.Correct
	}
}

// accuracy is the tally's pooled score, in float64: it is final
// reporting, not kernel math.
func (t cvTally) accuracy() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.halves) / float64(2*t.total)
}

// runFolds is the one cross-validation loop, behind CrossValidateContext
// and CrossValidateDetailed: validate once, then train and score fold by
// fold. detail, when not nil, receives each fold's statistics.
func runFolds(tr KernelTrainer, K *tensor.Matrix, labels []int, folds []Fold, detail *[]FoldStats) (cvTally, error) {
	var tally cvTally
	if K.Rows != K.Cols || K.Rows != len(labels) {
		return tally, fmt.Errorf("svm: kernel %dx%d vs %d labels", K.Rows, K.Cols, len(labels))
	}
	if len(folds) == 0 {
		return tally, fmt.Errorf("svm: no folds")
	}
	for fi, f := range folds {
		if err := checkSamples(labels, f.Train); err != nil {
			return tally, fmt.Errorf("svm: fold %d training set: %w", fi, err)
		}
		if err := checkSamples(labels, f.Test); err != nil {
			return tally, fmt.Errorf("svm: fold %d test set: %w", fi, err)
		}
	}
	obsCVRuns.Inc()
	// s is the pooled solver when tr is its trainer — driven directly
	// instead of through TrainKernel and a Model per fold — and nil when
	// folds go through tr.TrainKernel.
	var s *smo32
	var params Params
	if p, ok := tr.(PhiSVM); ok {
		params = p.Params
		s = getSolver()
		defer putSolver(s)
	}
	for fi, f := range folds {
		if len(f.Test) == 0 {
			continue
		}
		obsCVFolds.Inc()
		fs := FoldStats{Total: len(f.Test)}
		var model *Model
		var err error
		if pos := countPositive(labels, f.Train); pos == 0 || pos == len(f.Train) {
			err = ErrOneClass
		} else if s != nil {
			s.reset(K, labels, f.Train, params)
			if fs.Iters, fs.CGSteps, err = s.solve(); err == nil {
				s.finish()
			}
		} else if model, err = tr.TrainKernel(K, labels, f.Train); err == nil {
			fs.Iters = model.Iters
		}
		switch {
		case err == nil:
			var d [decideLanes]float64
			for first := 0; first < len(f.Test); first += decideLanes {
				test := f.Test[first:min(first+decideLanes, len(f.Test))]
				if s != nil {
					s.decideAll(K, test, &d)
				}
				for l, t := range test {
					if s == nil {
						d[l] = model.Decide(K, t)
					}
					pred := 0
					if d[l] > 0 {
						pred = 1
					}
					fs.Confusion[labels[t]][pred]++
					if pred == labels[t] {
						fs.Correct++
					}
				}
			}
		case errors.Is(err, ErrOneClass) || errors.Is(err, ErrNoConverge):
			obsCVDegenerate.Inc()
			fs = FoldStats{Total: fs.Total, Correct: fs.Total / 2, Degenerate: true}
		default:
			return tally, fmt.Errorf("svm: fold %d: %w", fi, err)
		}
		tally.add(fs)
		if detail != nil {
			*detail = append(*detail, fs)
		}
	}
	if tally.total == 0 {
		return tally, fmt.Errorf("svm: folds contain no test samples")
	}
	return tally, nil
}
