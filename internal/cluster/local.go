package cluster

import (
	"context"
	"errors"
	"sync"

	"fcma/internal/core"
	"fcma/internal/mpi"
	"fcma/internal/safe"
)

// RunLocal runs one master and the given number of worker ranks in this
// process over an mpi.LocalComm — the single-machine deployment of the
// framework, and the one copy of its harness. rank builds worker rank r's
// (1..workers) task processor and options on that rank's own goroutine,
// where a panic is contained to the rank. Every rank is closed on return (which
// unblocks any receive pump still parked in Recv) and every worker joined;
// a worker returning ctx's own error after a cancelled run is not a
// failure.
func RunLocal(ctx context.Context, workers, totalVoxels, taskSize int, mopts MasterOptions,
	rank func(r int) (TaskProcessor, WorkerOptions, error)) ([]core.VoxelScore, error) {
	comm, err := mpi.NewLocalComm(workers+1, 64)
	if err != nil {
		return nil, err
	}
	defer func() {
		for r := 0; r <= workers; r++ {
			comm.Rank(r).Close()
		}
	}()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		safe.Go("cluster/local-worker", func() error {
			proc, wopts, err := rank(r)
			if err != nil {
				return err
			}
			return RunWorkerCtx(ctx, comm.Rank(r), proc, wopts)
		}, func(err error) {
			if err != nil {
				// Leave, so the master books the rank dead instead of
				// waiting for it to speak.
				comm.Rank(r).Close()
			}
			errs[r-1] = err
			wg.Done()
		})
	}
	scores, err := RunMasterCtx(ctx, comm.Rank(0), totalVoxels, taskSize, mopts)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		if ce := ctx.Err(); e != nil && (ce == nil || !errors.Is(e, ce)) {
			return nil, e
		}
	}
	return scores, nil
}
