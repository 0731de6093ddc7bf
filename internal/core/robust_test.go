package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fcma/internal/obs"
	"fcma/internal/safe"
	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// panicTrainer panics on every training call — a stand-in for a bug deep
// inside stage 3.
type panicTrainer struct{}

func (panicTrainer) TrainKernel(K *tensor.Matrix, labels []int, trainIdx []int) (*svm.Model, error) {
	panic("injected stage-3 failure")
}

// cancellingTrainer cancels the shared context on its first call, then
// delegates — the run must stop at the next checkpoint instead of
// finishing all voxels.
type cancellingTrainer struct {
	cancel context.CancelFunc
	calls  *atomic.Int64
	inner  svm.KernelTrainer
}

func (c cancellingTrainer) TrainKernel(K *tensor.Matrix, labels []int, trainIdx []int) (*svm.Model, error) {
	if c.calls.Add(1) == 1 {
		c.cancel()
	}
	return c.inner.TrainKernel(K, labels, trainIdx)
}

func TestProcessContainsStagePanic(t *testing.T) {
	_, stack := testStack(t, 24, 3, 4)
	cfg := Optimized()
	cfg.Trainer = panicTrainer{}
	w, err := NewWorker(cfg, stack, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.ProcessContext(context.Background(), Task{V0: 0, V: stack.N})
	if err == nil {
		t.Fatal("panicking trainer produced no error")
	}
	var pe *safe.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *safe.PipelineError", err, err)
	}
	if pe.Stage != "svm/cv" {
		t.Fatalf("stage = %q, want svm/cv", pe.Stage)
	}
	if pe.V0 < 0 || pe.V0 >= stack.N {
		t.Fatalf("panic voxel %d outside brain of %d", pe.V0, stack.N)
	}
}

// panicGemm panics on every correlation product — a stand-in for a bug in a
// stage-1 kernel.
type panicGemm struct{}

func (panicGemm) Gemm(C, A, B *tensor.Matrix) { panic("injected stage-1 failure") }

// A panic inside a voxel block of the fused stage names that stage and the
// block's voxels as the brain numbers them, not as the task does.
func TestProcessContainsFusedBlockPanic(t *testing.T) {
	_, stack := testStack(t, 40, 3, 4)
	cfg := Optimized()
	cfg.Workers = 1
	cfg.Gemm = panicGemm{}
	w, err := NewWorker(cfg, stack, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.ProcessContext(context.Background(), Task{V0: 21, V: 13})
	var pe *safe.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *safe.PipelineError", err, err)
	}
	// Workers = 1 runs the blocks in order, so the first one fails:
	// min(corr.DefaultVoxBlock, 13) voxels from the task's first.
	if pe.Stage != "corr/fused" || pe.V0 != 21 || pe.V != 8 {
		t.Fatalf("error names stage %q voxels [%d,%d), want corr/fused [21,29)", pe.Stage, pe.V0, pe.V0+pe.V)
	}
}

// A task handed an already-expired deadline computes nothing: no voxel
// block runs (no correlation product is counted) and the deadline's own
// error comes back.
func TestProcessContextExpiredDeadlineRunsNoBlock(t *testing.T) {
	_, stack := testStack(t, 24, 3, 4)
	cfg := Optimized()
	cfg.Obs = obs.NewRegistry()
	w, err := NewWorker(cfg, stack, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if _, err := w.ProcessContext(ctx, Task{V0: 0, V: stack.N}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if n := cfg.Obs.Counter("corr_gemm_calls_total").Value(); n != 0 {
		t.Fatalf("expired task made %d correlation products, want none", n)
	}
}

func TestProcessContextPreCancelled(t *testing.T) {
	_, stack := testStack(t, 24, 3, 4)
	w, err := NewWorker(Optimized(), stack, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.ProcessContext(ctx, Task{V0: 0, V: stack.N}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProcessContextMidRunCancellation(t *testing.T) {
	const subjects = 3
	_, stack := testStack(t, 24, subjects, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	cfg := Optimized()
	cfg.Workers = 1 // serialize stage 3 so the checkpoint bound is exact
	cfg.Trainer = cancellingTrainer{cancel: cancel, calls: &calls, inner: svm.PhiSVM{}}
	w, err := NewWorker(cfg, stack, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.ProcessContext(ctx, Task{V0: 0, V: stack.N})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One voxel's cross-validation is the checkpoint unit: the first
	// voxel's CV (one training call per left-out subject) may finish, but
	// no further voxel may start.
	if got := calls.Load(); got > subjects {
		t.Fatalf("%d training calls after cancellation, want at most %d (one voxel's CV)", got, subjects)
	}
}
