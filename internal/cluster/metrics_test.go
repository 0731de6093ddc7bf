package cluster

import (
	"context"
	"sync"
	"testing"

	"fcma/internal/core"
	"fcma/internal/obs"
)

// TestClusterMetricsAggregation runs an in-process cluster where every
// worker records to its own registry and ships snapshots in its reports,
// and checks the master's ClusterMetrics sees each rank plus a merged
// view whose task and voxel totals match the run.
func TestClusterMetricsAggregation(t *testing.T) {
	st := testStack(t)
	const nWorkers = 3
	cm := &ClusterMetrics{}
	masterReg := obs.NewRegistry()
	scores, err := RunLocal(context.Background(), nWorkers, st.N, 5, MasterOptions{Obs: masterReg, Metrics: cm},
		func(int) (TaskProcessor, WorkerOptions, error) {
			reg := obs.NewRegistry()
			cfg := core.Optimized()
			cfg.Obs = reg
			w, err := core.NewWorker(cfg, st, nil)
			return w, WorkerOptions{Obs: reg}, err
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d, want %d", len(scores), st.N)
	}

	perRank := cm.Workers()
	if len(perRank) == 0 {
		t.Fatal("no worker metric snapshots reached the master")
	}
	var tasksAcrossRanks uint64
	for rank, snap := range perRank {
		if rank < 1 || rank > nWorkers {
			t.Errorf("snapshot from unexpected rank %d", rank)
		}
		tasksAcrossRanks += snap.Counters["worker_tasks_total"]
	}

	merged := cm.Merged()
	wantTasks := uint64((st.N + 4) / 5) // 32 voxels / 5 per task = 7 tasks
	if got := merged.Counters["worker_tasks_total"]; got != wantTasks {
		t.Errorf("merged worker_tasks_total = %d, want %d", got, wantTasks)
	}
	if got := merged.Counters["core_voxels_scored_total"]; got != uint64(st.N) {
		t.Errorf("merged core_voxels_scored_total = %d, want %d", got, st.N)
	}
	if tasksAcrossRanks != wantTasks {
		t.Errorf("per-rank task sum = %d, want %d", tasksAcrossRanks, wantTasks)
	}
	if h, ok := merged.Hists["stage_worker_task_seconds"]; !ok || h.Count != wantTasks {
		t.Errorf("merged stage_worker_task_seconds count = %+v, want %d observations", h, wantTasks)
	}

	// The master's own lifecycle counters in its private registry.
	ms := masterReg.Snapshot()
	if got := ms.Counters["cluster_tasks_issued_total"]; got != wantTasks {
		t.Errorf("cluster_tasks_issued_total = %d, want %d", got, wantTasks)
	}
	if got := ms.Counters["cluster_tasks_completed_total"]; got != wantTasks {
		t.Errorf("cluster_tasks_completed_total = %d, want %d", got, wantTasks)
	}
	if got := ms.Counters["cluster_voxels_scored_total"]; got != uint64(st.N) {
		t.Errorf("cluster_voxels_scored_total = %d, want %d", got, st.N)
	}
}

// TestSharedRegistryCountedOnce runs two in-process ranks that record to
// one registry, as a worker process does across a rejoin under a fresh
// rank. Both ship snapshots of that registry; the merged view must count
// it once. The rendezvous gives each rank one of the two tasks and lets
// neither finish before both have started, so both snapshots hold both.
func TestSharedRegistryCountedOnce(t *testing.T) {
	st := testStack(t)
	const nWorkers = 2
	taskSize := (st.N + nWorkers - 1) / nWorkers
	cm := &ClusterMetrics{}
	shared := obs.NewRegistry()
	var arrived sync.WaitGroup
	arrived.Add(nWorkers)
	_, err := RunLocal(context.Background(), nWorkers, st.N, taskSize, MasterOptions{Obs: obs.NewRegistry(), Metrics: cm},
		func(int) (TaskProcessor, WorkerOptions, error) {
			w, err := core.NewWorker(core.Optimized(), st, nil)
			return &rendezvous{inner: w, arrived: &arrived}, WorkerOptions{Obs: shared}, err
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.Merged().Counters["worker_tasks_total"]; got != nWorkers {
		t.Errorf("merged worker_tasks_total = %d, want %d: one registry counted once", got, nWorkers)
	}
	if got := len(cm.Workers()); got != 1 {
		t.Errorf("Workers() holds %d entries, want 1 for the one registry", got)
	}
}

// TestRejoinReportsOnlyThisMastersWork runs one worker registry through
// two masters in turn, as a worker process does when it rejoins a
// restarted master: the second master's metrics must count only the tasks
// and voxels done for it, not the first master's as well.
func TestRejoinReportsOnlyThisMastersWork(t *testing.T) {
	st := testStack(t)
	reg := obs.NewRegistry()
	worker := func(int) (TaskProcessor, WorkerOptions, error) {
		cfg := core.Optimized()
		cfg.Obs = reg
		w, err := core.NewWorker(cfg, st, nil)
		return w, WorkerOptions{Obs: reg}, err
	}
	for i, taskSize := range []int{5, 8} {
		cm := &ClusterMetrics{}
		if _, err := RunLocal(context.Background(), 1, st.N, taskSize, MasterOptions{Obs: obs.NewRegistry(), Metrics: cm}, worker); err != nil {
			t.Fatal(err)
		}
		wantTasks := uint64((st.N + taskSize - 1) / taskSize)
		perRank := cm.Workers()
		if len(perRank) != 1 {
			t.Fatalf("master %d: %d ranks reported, want 1", i+1, len(perRank))
		}
		for rank, snap := range perRank {
			if got := snap.Counters["worker_tasks_total"]; got != wantTasks {
				t.Errorf("master %d: rank %d reported %d tasks, want the %d it was given", i+1, rank, got, wantTasks)
			}
			if got := snap.Counters["core_voxels_scored_total"]; got != uint64(st.N) {
				t.Errorf("master %d: rank %d reported %d voxels, want %d", i+1, rank, got, st.N)
			}
			if h := snap.Hists["stage_worker_task_seconds"]; h.Count != wantTasks {
				t.Errorf("master %d: rank %d reported %d task timings, want %d", i+1, rank, h.Count, wantTasks)
			}
		}
	}
	if got := reg.Counter("worker_tasks_total").Value(); got != 7+4 {
		t.Errorf("the worker's registry counts %d tasks in all, want 11", got)
	}
}
