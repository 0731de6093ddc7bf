// Package baseline holds the paper's comparators — what the optimized
// pipeline is measured against, written to behave like the software the
// paper started from: BLAS (a Goto-style packing GEMM/SYRK, the MKL
// stand-in of Tables 1 and 5), LibSVM (the double-precision node-array
// solver with its row cache and shrinking, Table 8's first row) and Worker
// (the baseline task of Table 1 and Fig. 9). It is an experiment's control,
// not something an analysis runs: only cmd/fcma-bench (via internal/report),
// examples and tests import it, and `make lint` fails if the library or a
// binary that runs, distributes or serves an analysis does.
package baseline

import (
	"context"
	"fmt"

	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/obs"
	"fcma/internal/safe"
	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// Worker runs the baseline three-stage task over one dataset's epoch stack;
// it has core.Worker's ProcessContext so the two can be timed side by side.
type Worker struct {
	stack  *corr.EpochStack
	labels []int
	folds  []svm.Fold
	pipe   *corr.Pipeline
}

// NewWorker prepares a baseline worker. Stage 3 is leave-one-subject-out
// cross-validation, the paper's offline protocol and core.NewWorker's
// choice for a multi-subject stack. reg (nil: obs.Default()) receives the
// separated pipeline's stage_corr_{correlate,normalize}_seconds timings.
func NewWorker(stack *corr.EpochStack, reg *obs.Registry) (*Worker, error) {
	if stack == nil || stack.M() == 0 {
		return nil, fmt.Errorf("baseline: empty epoch stack")
	}
	subjects, labels := make([]int, stack.M()), make([]int, stack.M())
	for i, e := range stack.Epochs {
		subjects[i], labels[i] = e.Subject, e.Label
	}
	return &Worker{
		stack:  stack,
		labels: labels,
		folds:  svm.LeaveOneSubjectOutFolds(subjects),
		pipe:   &corr.Pipeline{Gemm: BLAS{Workers: 1}, Obs: reg},
	}, nil
}

// ProcessContext scores the task's voxels: correlate, normalize in a second
// pass over the full buffer, then per voxel a packed-GEMM kernel matrix and
// LibSVM cross-validation.
func (w *Worker) ProcessContext(ctx context.Context, t core.Task) ([]core.VoxelScore, error) {
	if err := corr.CheckRange(t.V0, t.V, w.stack.N); err != nil {
		return nil, fmt.Errorf("baseline: task %w", err)
	}
	buf, err := w.pipe.RunContext(ctx, w.stack, t.V0, t.V)
	if err != nil {
		return nil, err
	}
	M := w.stack.M()
	scores := make([]core.VoxelScore, t.V)
	err = safe.ParallelDynamic(ctx, safe.Span{Stage: "baseline/cv", Base: t.V0}, t.V, 0, func(ictx context.Context, v int) error {
		K := tensor.NewMatrix(M, M)
		BLAS{Workers: 1}.Syrk(K, buf.View(v*M, 0, M, w.stack.N))
		acc, err := svm.CrossValidateContext(ictx, LibSVM{}, K, w.labels, w.folds)
		scores[v] = core.VoxelScore{Voxel: t.V0 + v, Accuracy: acc}
		return err
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}
