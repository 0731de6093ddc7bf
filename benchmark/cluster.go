package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fcma"
	"fcma/internal/cluster"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/mpi"
	"fcma/internal/obs"
	"fcma/internal/safe"
)

// timedProcessor is the timing decorator around a rank's core.Worker: it
// counts the tasks the rank ran and the time it spent in them.
type timedProcessor struct {
	inner *core.Worker
	tasks int
	busy  time.Duration
}

func (p *timedProcessor) Process(t core.Task) ([]core.VoxelScore, error) {
	return p.ProcessContext(context.Background(), t)
}

// ProcessContext makes the decorator a cluster.ContextProcessor, the form
// RunWorkerCtx prefers.
func (p *timedProcessor) ProcessContext(ctx context.Context, t core.Task) ([]core.VoxelScore, error) {
	start := time.Now()
	scores, err := p.inner.ProcessContext(ctx, t)
	p.busy += time.Since(start)
	p.tasks++
	return scores, err
}

// clusterLayers fills the cluster rows: one distributed selection of the
// first input, assembled as fcma.SelectVoxelsDistributed assembles it (one
// master and ranks workers over an in-process communicator, each rank a
// core.Worker at Workers=1) but with every rank's processor decorated.
func clusterLayers(ctx context.Context, l *ledger, inputs []input, ranks, taskSize int) error {
	ds, err := inputs[0].dataset()
	if err != nil {
		return err
	}
	op := l.rec.root("cluster.op", 0)
	stack, err := corr.BuildEpochStackContext(ctx, ds, 1)
	if err != nil {
		return err
	}
	comm, err := mpi.NewLocalComm(ranks+1, 64)
	if err != nil {
		return err
	}
	defer func() {
		for r := 0; r <= ranks; r++ {
			comm.Rank(r).Close()
		}
	}()
	procs := make([]*timedProcessor, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := range procs {
		cfg := core.Optimized()
		cfg.Workers = 1
		cfg.Obs = obs.NewRegistry()
		worker, err := core.NewWorker(cfg, stack, nil)
		if err != nil {
			return err
		}
		procs[r] = &timedProcessor{inner: worker}
		wg.Add(1)
		safe.Go("bench/cluster-rank", func() error {
			return cluster.RunWorkerCtx(ctx, comm.Rank(r+1), procs[r], cluster.WorkerOptions{Obs: cfg.Obs})
		}, func(err error) {
			errs[r] = err
			wg.Done()
		})
	}
	masterReg := obs.NewRegistry()
	scores, err := cluster.RunMasterCtx(ctx, comm.Rank(0), stack.N, taskSize, cluster.MasterOptions{Obs: masterReg})
	wg.Wait()
	wall := op.end()
	if err != nil {
		return fmt.Errorf("decorated cluster run: %w", err)
	}
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("decorated cluster run, rank %d: %w", r+1, err)
		}
	}

	var busy, busiest float64
	for _, p := range procs {
		busy += p.busy.Seconds()
		busiest = max(busiest, p.busy.Seconds())
	}
	needed := (stack.N + taskSize - 1) / taskSize
	issued := masterReg.Snapshot().Counters["cluster_tasks_issued_total"]
	l.set("cluster.tasks", float64(needed))
	l.set("cluster.useful_task_ratio", ratio(float64(needed), float64(issued)))
	l.set("cluster.worker_busy_share", busy/(float64(ranks)*wall))
	l.set("cluster.imbalance", ratio(busiest, busy/float64(ranks)))
	l.set("cluster.overhead_s", wall-busiest)

	if err := sameRanking(core.TopVoxels(scores, 0), l.firstRanking); err != nil {
		l.fail("decorated cluster run differs from fcma.SelectVoxelsDistributed: %v", err)
	}

	// The same data through the local path with as many threads as the
	// cluster has ranks: what the master-worker protocol costs.
	start := time.Now()
	if _, err := fcma.SelectVoxelsContext(ctx, inputs[0].data, fcma.Config{Workers: ranks}); err != nil {
		return fmt.Errorf("local selection: %w", err)
	}
	l.set("cluster.vs_local_ratio", l.opP50/time.Since(start).Seconds())
	return nil
}
