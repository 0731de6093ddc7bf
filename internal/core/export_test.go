package core

import (
	"context"

	"fcma/internal/corr"
	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// Helpers the external test package (core_test) shares with the in-package
// tests. It exists because the comparisons against internal/baseline and
// through internal/cluster cannot be in-package tests: both packages import
// this one.
var (
	TestStack      = testStack
	EachKernelPath = eachKernelPath
)

// Folds is the worker's cross-validation split.
func (w *Worker) Folds() []svm.Fold { return w.folds }

// RunKernels is the worker's fused stage alone: voxels [v0, v0+V)'s kernel
// matrices.
func (w *Worker) RunKernels(ctx context.Context, st *corr.EpochStack, v0, V int) ([]tensor.Matrix, error) {
	return w.pipe.RunKernels(ctx, st, v0, V)
}
