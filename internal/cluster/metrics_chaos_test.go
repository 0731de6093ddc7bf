package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"fcma/internal/core"
	"fcma/internal/mpi"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
)

// sendChaosTransport injects faults only into the worker→master direction
// (Send); Recv is clean. That isolates the report wire path under test:
// task delivery stays exact, so a worker's registry never advances after
// the master stops listening (a duplicated late task would), and the final
// snapshot below becomes exactly checkable.
type sendChaosTransport struct {
	mpi.Transport               // clean inner: Recv, Rank, Size, Close
	chaotic       mpi.Transport // chaos-wrapped view of the same inner
}

func (s *sendChaosTransport) Send(to int, tag mpi.Tag, body []byte) error {
	return s.chaotic.Send(to, tag, body)
}

// TestMetricsWireSurvivesDupAndDelay chaos-tests the metrics wire path:
// every report carries its worker's registry snapshot, so when the run
// completes the master's last-wins snapshot for every rank must equal that
// worker's own final registry — duplicated and delayed messages included.
// Duplication is idempotent because ClusterMetrics keeps only the latest
// snapshot per registry; delay preserves order because ChaosTransport
// sleeps inline in Send.
func TestMetricsWireSurvivesDupAndDelay(t *testing.T) {
	st := testStack(t)
	const nWorkers = 3
	comm, err := mpi.NewLocalComm(nWorkers+1, 32)
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]*obs.Registry, nWorkers+1)
	var wg sync.WaitGroup
	for r := 1; r <= nWorkers; r++ {
		reg := obs.NewRegistry()
		regs[r] = reg
		inner := comm.Rank(r)
		ct, err := mpi.NewChaosTransport(inner, mpi.ChaosConfig{
			Seed:      100 + int64(r),
			Duplicate: 0.25,
			Delay:     0.25,
			MaxDelay:  2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := &sendChaosTransport{Transport: inner, chaotic: ct}
		wg.Add(1)
		go func(r int, tr mpi.Transport) {
			defer wg.Done()
			cfg := core.Optimized()
			cfg.Obs = reg
			w, err := core.NewWorker(cfg, st, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if err := RunWorkerCtx(context.Background(), tr, w, WorkerOptions{Obs: reg}); err != nil {
				t.Error(err)
			}
		}(r, tr)
	}
	cm := &ClusterMetrics{}
	masterReg := obs.NewRegistry()
	scores, err := RunMasterCtx(context.Background(), comm.Rank(0), st.N, 5, MasterOptions{
		Obs:     masterReg,
		Metrics: cm,
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(scores) != st.N {
		t.Fatalf("scores = %d, want %d", len(scores), st.N)
	}

	perRank := cm.Workers()
	if len(perRank) == 0 {
		t.Fatal("master holds no worker snapshots at all")
	}
	// Exact equality: the master's final view of each rank is that rank's
	// own final registry, proving no run-completion snapshot was lost or
	// left stale by duplication or delay. A rank may be absent only if it
	// did no work at all (its delayed TagReady lost the race for the last
	// task) — a snapshot rides in every report, so any booked result
	// brought its sender's snapshot with it.
	for r := 1; r <= nWorkers; r++ {
		want := regs[r].Snapshot()
		got, ok := perRank[r]
		if !ok {
			if want.Counters["worker_tasks_total"] != 0 {
				t.Fatalf("rank %d ran %d tasks but the master holds no snapshot for it",
					r, want.Counters["worker_tasks_total"])
			}
			continue
		}
		for _, c := range []string{"worker_tasks_total", "core_voxels_scored_total"} {
			if got.Counters[c] != want.Counters[c] {
				t.Errorf("rank %d %s: master saw %d, worker's registry holds %d",
					r, c, got.Counters[c], want.Counters[c])
			}
		}
	}
	// Duplicate results must not inflate the dedup-exact voxel count.
	if got := masterReg.Snapshot().Counters["cluster_voxels_scored_total"]; got != uint64(st.N) {
		t.Errorf("cluster_voxels_scored_total = %d, want exactly %d", got, st.N)
	}
}

// TestMetricsWireSurvivesDrops chaos-tests the lossy side: with messages
// (tasks, reports, heartbeats) silently dropped, the run must
// still complete with a full, dedup-exact score set, worker metrics must
// never overcount the cluster totals, and the spans that do arrive must be
// well-formed. Lost snapshots may leave a rank's view stale — cumulative
// registries heal that on the next ship — but nothing may be invented.
func TestMetricsWireSurvivesDrops(t *testing.T) {
	st := testStack(t)
	const nWorkers = 3
	comm, err := mpi.NewLocalComm(nWorkers+1, 32)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	cts := make([]*mpi.ChaosTransport, 0, nWorkers)
	for r := 1; r <= nWorkers; r++ {
		ct, err := mpi.NewChaosTransport(comm.Rank(r), mpi.ChaosConfig{
			Seed:      200 + int64(r),
			Drop:      0.10,
			Duplicate: 0.10,
			MaxDelay:  2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
		wg.Add(1)
		go func(ct *mpi.ChaosTransport) {
			defer wg.Done()
			reg := obs.NewRegistry()
			cfg := core.Optimized()
			cfg.Obs = reg
			w, err := core.NewWorker(cfg, st, nil)
			if err != nil {
				t.Error(err)
				return
			}
			// A dropped TagStop leaves the worker waiting; the test closes
			// the transport after the master finishes, so errors here are
			// expected shutdown noise, not failures.
			_ = RunWorkerCtx(context.Background(), ct, w, WorkerOptions{
				Obs:               reg,
				Trace:             trace.New(0),
				HeartbeatInterval: 10 * time.Millisecond,
			})
		}(ct)
	}
	cm := &ClusterMetrics{}
	tracer := trace.New(0)
	masterReg := obs.NewRegistry()
	scores, err := RunMasterCtx(context.Background(), comm.Rank(0), st.N, 5, MasterOptions{
		Obs:     masterReg,
		Metrics: cm,
		Trace:   tracer,
		// Dropped tasks and results are recovered by the deadline/retry
		// machinery, not by luck.
		TaskDeadline:     200 * time.Millisecond,
		TaskRetries:      1000,
		WorkerErrorLimit: 1000,
		HeartbeatTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range cts {
		ct.Close()
	}
	wg.Wait()
	if len(scores) != st.N {
		t.Fatalf("scores = %d, want %d", len(scores), st.N)
	}
	ms := masterReg.Snapshot()
	if got := ms.Counters["cluster_voxels_scored_total"]; got != uint64(st.N) {
		t.Errorf("cluster_voxels_scored_total = %d, want exactly %d (dedup must hold under drops)", got, st.N)
	}
	// Snapshots that did arrive must be internally consistent: no rank can
	// report more voxels scored than tasks it ran could produce, and the
	// merged view cannot undercount what the master booked as results from
	// the snapshots' senders. (Exact totals are unknowable: a worker's
	// final snapshot may have been dropped.)
	merged := cm.Merged()
	if merged.Counters["worker_tasks_total"] == 0 {
		t.Error("no worker metrics survived the lossy wire at all")
	}
	if merged.Counters["core_voxels_scored_total"] > merged.Counters["worker_tasks_total"]*5 {
		t.Errorf("merged snapshots overcount: %d voxels from %d tasks of <= 5 voxels",
			merged.Counters["core_voxels_scored_total"], merged.Counters["worker_tasks_total"])
	}
	for _, sp := range tracer.Drain() {
		if sp.Name == "" {
			t.Error("a span arrived without a name")
		}
	}
}
