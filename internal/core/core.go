// Package core implements the FCMA three-stage pipeline for a single
// worker task (paper §3.1.2): given a range of assigned voxels, compute
// their whole-brain correlation vectors for every epoch (stage 1),
// Fisher-transform and z-score within subject (stage 2), then run
// per-voxel linear SVM cross-validation over precomputed kernel matrices
// (stage 3) and return an accuracy score per voxel. Stages 1 and 2 and the
// kernel precompute run as one fused stage (corr.Pipeline.RunKernels), so
// a task holds its voxels' M×M kernel matrices and never the correlation
// vectors they are made from.
package core

import (
	"context"
	"fmt"
	"sort"

	"fcma/internal/blas"
	"fcma/internal/corr"
	"fcma/internal/obs"
	"fcma/internal/safe"
	"fcma/internal/svm"
)

// Config selects the kernel implementations and pipeline structure for a
// worker. The zero value is NOT valid; start from Optimized so every field
// is set deliberately.
type Config struct {
	// Gemm performs the stage-1 correlation products.
	Gemm blas.Sgemm
	// Trainer runs stage-3 SVM training during cross-validation.
	Trainer svm.KernelTrainer
	// Merged selected between the merged and the separated stage 1+2. The
	// worker no longer reads it — every task runs the fused stage — and it
	// stays, set by Optimized, only because the repo benchmark's mirror task
	// copies it into its own corr.Pipeline (it leaves with that PR).
	Merged bool
	// Workers bounds goroutine parallelism; 0 means GOMAXPROCS.
	Workers int
	// Obs receives stage timings and task/voxel counters (see DESIGN.md
	// §10); nil records to the process-wide obs.Default() registry. The
	// same registry is threaded into the corr.Pipeline the worker builds.
	Obs *obs.Registry
}

// obsReg resolves the metrics registry (nil field → process default).
func (c Config) obsReg() *obs.Registry {
	if c.Obs == nil {
		return obs.Default()
	}
	return c.Obs
}

// Optimized returns the paper's optimized configuration — tall-skinny
// blocked kernels, the fused stage, and PhiSVM — which is the one engine
// every entry point runs. (The configuration the paper measures it against
// is internal/baseline's task, reached only by fcma-bench and tests.)
func Optimized() Config {
	return Config{
		Gemm:    blas.TallSkinny{Workers: 1},
		Trainer: svm.PhiSVM{},
		Merged:  true,
	}
}

func (c Config) validate() error {
	if c.Gemm == nil || c.Trainer == nil {
		return fmt.Errorf("core: config missing kernels (gemm=%v trainer=%v)", c.Gemm != nil, c.Trainer != nil)
	}
	return nil
}

// Task assigns a contiguous voxel range to a worker, the unit of cluster
// distribution (§3.1.1).
type Task struct {
	// V0 is the first assigned voxel, V the count.
	V0, V int
}

// VoxelScore is the cross-validation accuracy FCMA assigns to one voxel.
type VoxelScore struct {
	// Voxel is the brain voxel index.
	Voxel int
	// Accuracy is the cross-validated classification accuracy of the
	// voxel's correlation vectors, in [0, 1].
	Accuracy float64
}

// Worker processes tasks against one dataset's epoch stack.
type Worker struct {
	cfg   Config
	stack *corr.EpochStack
	folds []svm.Fold
	pipe  *corr.Pipeline // runs the fused stage
}

// NewWorker prepares a worker over a prebuilt epoch stack. folds defines
// the stage-3 cross-validation split; nil selects leave-one-subject-out
// over the stack's epochs, or — for a single subject's data (online
// analysis), where that split degenerates — min(6, M/2)-fold over its M
// epochs.
func NewWorker(cfg Config, stack *corr.EpochStack, folds []svm.Fold) (*Worker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if stack == nil || stack.M() == 0 {
		return nil, fmt.Errorf("core: empty epoch stack")
	}
	switch {
	case folds != nil:
	case stack.Subjects == 1:
		folds = svm.KFolds(stack.M(), min(6, stack.M()/2))
	default:
		subjects := make([]int, stack.M())
		for i, e := range stack.Epochs {
			subjects[i] = e.Subject
		}
		folds = svm.LeaveOneSubjectOutFolds(subjects)
	}
	pipe := &corr.Pipeline{
		Gemm:    cfg.Gemm,
		Workers: cfg.Workers,
		Obs:     cfg.Obs,
	}
	return &Worker{cfg: cfg, stack: stack, folds: folds, pipe: pipe}, nil
}

// ProcessContext runs the full three-stage pipeline for the task and
// returns one score per assigned voxel, with cooperative cancellation and
// panic containment. A cancelled ctx stops every pipeline goroutine at its
// next work-item checkpoint (one voxel block in the fused stage, one voxel
// in stage 3) and returns ctx.Err() after all of them have joined. A panic
// in any stage surfaces as a *safe.PipelineError naming the stage and
// voxel range instead of killing the process.
func (w *Worker) ProcessContext(ctx context.Context, t Task) ([]VoxelScore, error) {
	if err := corr.CheckRange(t.V0, t.V, w.stack.N); err != nil {
		return nil, fmt.Errorf("core: task %w", err)
	}
	reg := w.cfg.obsReg()
	reg.Counter("core_tasks_total").Inc()
	ctx, task := reg.Begin(ctx, "core/task")
	task.Span.SetInt("v0", t.V0)
	task.Span.SetInt("voxels", t.V)
	defer task.End()
	// Stages 1+2 and every voxel's kernel matrix, before any
	// cross-validation starts (§4.4's redesign keeps every thread busy
	// during the solver stage; fused, the correlation data the paper frees
	// at this point is never held).
	kernels, err := w.pipe.RunKernels(ctx, w.stack, t.V0, t.V)
	if err != nil {
		return nil, err
	}

	// Stage 3: per-voxel cross-validation. The paper dedicates one thread
	// to one voxel's cross-validation; dynamic assignment handles uneven
	// SMO convergence times.
	labels := make([]int, w.stack.M())
	for i, e := range w.stack.Epochs {
		labels[i] = e.Label
	}
	scores := make([]VoxelScore, t.V)
	voxelsScored := reg.Counter("core_voxels_scored_total")
	svmCtx, stage3 := reg.Begin(ctx, "core/svm")
	err = safe.ParallelDynamic(svmCtx, safe.Span{Stage: "svm/cv", Base: t.V0}, t.V, w.cfg.Workers, func(ictx context.Context, v int) error {
		acc, err := svm.CrossValidateObserved(ictx, reg, w.cfg.Trainer, &kernels[v], labels, w.folds)
		if err != nil {
			return fmt.Errorf("core: voxel %d: %w", t.V0+v, err)
		}
		scores[v] = VoxelScore{Voxel: t.V0 + v, Accuracy: acc}
		voxelsScored.Inc()
		return nil
	})
	stage3.End()
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// TopVoxels returns the k highest-accuracy scores in descending order
// (ties broken by voxel index for determinism); k <= 0 or k beyond the
// score count returns all scores sorted.
func TopVoxels(scores []VoxelScore, k int) []VoxelScore {
	out := append([]VoxelScore(nil), scores...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Accuracy != out[j].Accuracy {
			return out[i].Accuracy > out[j].Accuracy
		}
		return out[i].Voxel < out[j].Voxel
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}
