package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"fcma/internal/core"
	"fcma/internal/mpi"
)

// panicEveryTask panics on every task — a worker whose pipeline is
// poisoned for all inputs.
type panicEveryTask struct{}

func (panicEveryTask) ProcessContext(_ context.Context, t core.Task) ([]core.VoxelScore, error) {
	panic("injected worker panic")
}

// okProcessor returns a fixed accuracy for every assigned voxel.
type okProcessor struct{}

func (okProcessor) ProcessContext(_ context.Context, t core.Task) ([]core.VoxelScore, error) {
	out := make([]core.VoxelScore, t.V)
	for i := range out {
		out[i] = core.VoxelScore{Voxel: t.V0 + i, Accuracy: 0.5}
	}
	return out, nil
}

// gatedProcessor closes first when its first task is done and starts no
// later task until release is closed. One rank drives it, one task at a
// time.
type gatedProcessor struct{ first, release chan struct{} }

func (p gatedProcessor) ProcessContext(ctx context.Context, t core.Task) ([]core.VoxelScore, error) {
	select {
	case <-p.first:
		<-p.release
	default:
		defer close(p.first)
	}
	return okProcessor{}.ProcessContext(ctx, t)
}

// TestWorkerPanicIsContained: a panicking processor must not crash the
// worker rank — the panic becomes an error report and the master
// finishes the run on the healthy worker.
func TestWorkerPanicIsContained(t *testing.T) {
	comm, err := mpi.NewLocalComm(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := RunWorkerCtx(context.Background(), comm.Rank(1), panicEveryTask{}, WorkerOptions{}); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := RunWorkerCtx(context.Background(), comm.Rank(2), okProcessor{}, WorkerOptions{}); err != nil {
			t.Error(err)
		}
	}()
	scores, err := RunMasterCtx(context.Background(), comm.Rank(0), 20, 5, MasterOptions{TaskRetries: 10})
	wg.Wait()
	if err != nil {
		t.Fatalf("master failed despite a healthy worker: %v", err)
	}
	if len(scores) != 20 {
		t.Fatalf("scored %d of 20 voxels", len(scores))
	}
}

// TestWorkerPanicSurfacesAsPipelineError: with no healthy worker left,
// the run aborts with the contained panic's structured message (stage +
// cause), not a crash.
func TestWorkerPanicSurfacesAsPipelineError(t *testing.T) {
	comm, err := mpi.NewLocalComm(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = RunWorkerCtx(context.Background(), comm.Rank(1), panicEveryTask{}, WorkerOptions{})
	}()
	_, err = RunMasterCtx(context.Background(), comm.Rank(0), 20, 5, MasterOptions{TaskRetries: 2})
	wg.Wait()
	if err == nil {
		t.Fatal("all-panicking cluster reported success")
	}
	if !strings.Contains(err.Error(), "cluster/worker") || !strings.Contains(err.Error(), "injected worker panic") {
		t.Fatalf("error lost the contained panic context: %v", err)
	}
}

// TestRunMasterCtxCancellation: cancelling the master's context stops
// the run, broadcasts TagStop so workers shut down, and returns
// ctx.Err() with all goroutines joined.
func TestRunMasterCtxCancellation(t *testing.T) {
	comm, err := mpi.NewLocalComm(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// The worker finishes one of the run's 20 tasks and holds the second
	// until the master has been cancelled, so the run can neither end
	// before the cancellation nor outlast it.
	p := gatedProcessor{first: make(chan struct{}), release: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunWorkerCtx(context.Background(), comm.Rank(1), p, WorkerOptions{}); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		<-p.first
		cancel()
		close(p.release)
	}()
	_, err = RunMasterCtx(ctx, comm.Rank(0), 1000, 50, MasterOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	wg.Wait() // the worker must see TagStop and exit cleanly
}

// TestRunWorkerCtxCancellation: a cancelled worker context aborts the
// serve loop (even while blocked waiting for a task) and returns
// ctx.Err().
func TestRunWorkerCtxCancellation(t *testing.T) {
	comm, err := mpi.NewLocalComm(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorkerCtx(ctx, comm.Rank(1), okProcessor{}, WorkerOptions{HeartbeatInterval: -1})
	}()
	// Drain the TagReady so the worker is parked in its receive loop.
	if msg, err := comm.Rank(0).Recv(); err != nil || msg.Tag != mpi.TagReady {
		t.Fatalf("recv = %v, %v", msg, err)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("worker did not return after cancellation")
	}
	comm.Rank(1).Close() // release the receive pump
}
