package fcma

import (
	"context"
	"fmt"
	"math/rand"

	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// PermutationResult reports a label-permutation significance test.
type PermutationResult struct {
	// Observed is the true-label cross-validated accuracy of the
	// classifier built on the tested voxels.
	Observed float64
	// Null holds the permuted-label accuracies.
	Null []float64
	// P is the permutation p-value with the standard +1 correction:
	// (1 + #{null ≥ observed}) / (n + 1).
	P float64
}

// PermutationTest estimates the statistical significance of the
// correlation-pattern classifier over the given voxels: the true-label
// leave-one-subject-out accuracy is compared against n within-subject
// label permutations (shuffling preserves each subject's class balance, as
// standard in MVPA significance testing). This is the quantitative backing
// for calling a selected voxel set "reliable" (paper §5.2.1).
func PermutationTest(d *Data, voxels []int, cfg Config, n int, seed int64) (*PermutationResult, error) {
	if len(voxels) < 2 {
		return nil, fmt.Errorf("fcma: permutation test needs at least 2 voxels")
	}
	if n < 1 {
		return nil, fmt.Errorf("fcma: permutation count %d", n)
	}
	if d.ds.Subjects < 2 {
		return nil, fmt.Errorf("fcma: permutation test needs at least 2 subjects for leave-one-subject-out")
	}
	M := len(d.ds.Epochs)
	p := len(voxels) * (len(voxels) - 1) / 2
	feats := tensor.NewMatrix(M, p)
	labels := make([]int, M)
	subjects := make([]int, M)
	for i, e := range d.ds.Epochs {
		pairFeatures(feats.Row(i), d.ds, voxels, e)
		labels[i] = e.Label
		subjects[i] = e.Subject
	}
	K := svm.PrecomputeKernel(feats)
	folds := svm.LeaveOneSubjectOutFolds(subjects)
	trainer := cfg.trainer()
	ctx := context.Background() // the public signature has none

	observed, err := svm.CrossValidateContext(ctx, trainer, K, labels, folds)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	res := &PermutationResult{Observed: observed, Null: make([]float64, 0, n)}
	exceed := 0
	perm := make([]int, M)
	for trial := 0; trial < n; trial++ {
		copy(perm, labels)
		shuffleWithinSubjects(rng, perm, subjects)
		acc, err := svm.CrossValidateContext(ctx, trainer, K, perm, folds)
		if err != nil {
			return nil, fmt.Errorf("fcma: permutation %d: %w", trial, err)
		}
		res.Null = append(res.Null, acc)
		if acc >= observed {
			exceed++
		}
	}
	res.P = float64(1+exceed) / float64(n+1)
	return res, nil
}

// shuffleWithinSubjects permutes labels among each subject's own epochs,
// preserving per-subject class counts.
func shuffleWithinSubjects(rng *rand.Rand, labels, subjects []int) {
	bySubject := make(map[int][]int)
	for i, s := range subjects {
		bySubject[s] = append(bySubject[s], i)
	}
	// Iterate subjects in index order for determinism.
	maxSubj := -1
	for s := range bySubject {
		if s > maxSubj {
			maxSubj = s
		}
	}
	for s := 0; s <= maxSubj; s++ {
		idx := bySubject[s]
		for i := len(idx) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			labels[idx[i]], labels[idx[j]] = labels[idx[j]], labels[idx[i]]
		}
	}
}
