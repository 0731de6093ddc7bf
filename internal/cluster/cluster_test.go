package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/mpi"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
	"fcma/internal/retry"
)

func testStack(t testing.TB) *corr.EpochStack {
	t.Helper()
	d, err := fmri.Generate(fmri.Spec{
		Name:             "cluster-test",
		Voxels:           32,
		Subjects:         3,
		EpochsPerSubject: 6,
		EpochLen:         12,
		RestLen:          2,
		SignalVoxels:     8,
		Coupling:         0.8,
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := corr.BuildEpochStackContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runCluster spins up an in-process master with n workers over the stack.
func runCluster(t *testing.T, st *corr.EpochStack, nWorkers, taskSize int) []core.VoxelScore {
	t.Helper()
	scores, err := RunLocal(context.Background(), nWorkers, st.N, taskSize, MasterOptions{},
		func(int) (TaskProcessor, WorkerOptions, error) {
			w, err := core.NewWorker(core.Optimized(), st, nil)
			return w, WorkerOptions{}, err
		})
	if err != nil {
		t.Fatal(err)
	}
	return scores
}

func TestClusterProducesAllVoxels(t *testing.T) {
	st := testStack(t)
	scores := runCluster(t, st, 3, 5)
	if len(scores) != st.N {
		t.Fatalf("scores = %d, want %d", len(scores), st.N)
	}
	for i, s := range scores {
		if s.Voxel != i {
			t.Fatalf("score %d is voxel %d (results must be sorted and complete)", i, s.Voxel)
		}
	}
}

func TestClusterMatchesSingleWorker(t *testing.T) {
	st := testStack(t)
	multi := runCluster(t, st, 4, 3)
	single := runCluster(t, st, 1, 32)
	if len(multi) != len(single) {
		t.Fatal("length mismatch")
	}
	for i := range multi {
		if multi[i] != single[i] {
			t.Fatalf("voxel %d: %+v vs %+v", i, multi[i], single[i])
		}
	}
}

func TestClusterUnevenTaskSizes(t *testing.T) {
	st := testStack(t)
	// 32 voxels in tasks of 7 → sizes 7,7,7,7,4.
	scores := runCluster(t, st, 2, 7)
	if len(scores) != st.N {
		t.Fatalf("scores = %d", len(scores))
	}
}

func TestRunMasterValidation(t *testing.T) {
	comm, _ := mpi.NewLocalComm(2, 4)
	if _, err := RunMasterCtx(context.Background(), comm.Rank(0), 0, 5, MasterOptions{}); err == nil {
		t.Fatal("0 voxels accepted")
	}
	if _, err := RunMasterCtx(context.Background(), comm.Rank(0), 10, 0, MasterOptions{}); err == nil {
		t.Fatal("task size 0 accepted")
	}
	solo, _ := mpi.NewLocalComm(1, 4)
	if _, err := RunMasterCtx(context.Background(), solo.Rank(0), 10, 5, MasterOptions{}); err == nil {
		t.Fatal("no-worker communicator accepted")
	}
}

func TestWorkerErrorPropagates(t *testing.T) {
	st := testStack(t)
	comm, _ := mpi.NewLocalComm(2, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Error(err)
			return
		}
		// Worker will fail: master asks for more voxels than the stack has.
		_ = RunWorkerCtx(context.Background(), comm.Rank(1), w, WorkerOptions{})
	}()
	// Claim a larger brain than the worker's stack: the task [32, 64) is
	// out of range on the worker side.
	_, err := RunMasterCtx(context.Background(), comm.Rank(0), 64, 40, MasterOptions{})
	wg.Wait()
	if err == nil {
		t.Fatal("master must surface worker errors")
	}
}

// flakyWorker takes exactly one task, then dies without replying (its
// endpoint close injects the disconnect notice). It closes gotTask once a
// task is in hand so the test can sequence other workers behind it.
func flakyWorker(t *testing.T, tr mpi.Transport, gotTask chan<- struct{}) {
	t.Helper()
	defer close(gotTask)
	if err := tr.Send(0, mpi.TagReady, nil); err != nil {
		t.Error(err)
		return
	}
	msg, err := tr.Recv()
	if err != nil {
		t.Error(err)
		return
	}
	if msg.Tag != mpi.TagTask {
		t.Errorf("flaky worker got %v", msg.Tag)
		return
	}
	tr.Close() // crash mid-task
}

func TestMasterReassignsAfterWorkerDeath(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(3, 32)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	gotTask := make(chan struct{})
	go func() {
		defer wg.Done()
		flakyWorker(t, comm.Rank(1), gotTask)
	}()
	go func() {
		defer wg.Done()
		// Join only after the flaky worker holds a task, so its crash is
		// guaranteed to leave work to reassign.
		<-gotTask
		w, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := RunWorkerCtx(context.Background(), comm.Rank(2), w, WorkerOptions{}); err != nil {
			t.Error(err)
		}
	}()
	scores, err := RunMasterCtx(context.Background(), comm.Rank(0), st.N, 8, MasterOptions{})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d of %d after worker death", len(scores), st.N)
	}
	for i, s := range scores {
		if s.Voxel != i {
			t.Fatalf("missing voxel %d", i)
		}
	}
}

func TestMasterFailsWhenAllWorkersDie(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		flakyWorker(t, comm.Rank(1), make(chan struct{}))
	}()
	_, err = RunMasterCtx(context.Background(), comm.Rank(0), st.N, 8, MasterOptions{})
	wg.Wait()
	if err == nil {
		t.Fatal("master must fail when every worker is lost mid-analysis")
	}
}

func TestTCPClusterSurvivesWorkerCrash(t *testing.T) {
	st := testStack(t)
	master, err := mpi.ListenMaster("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	results := make(chan error, 2)
	gotTask := make(chan struct{})
	go func() {
		w, err := mpi.DialWorkerRetryCtx(context.Background(), master.Addr(), retry.Policy{Attempts: 1})
		if err != nil {
			close(gotTask)
			results <- err
			return
		}
		// Crash after the first task arrives.
		if err := w.Send(0, mpi.TagReady, nil); err != nil {
			close(gotTask)
			results <- err
			return
		}
		if _, err := w.Recv(); err != nil {
			close(gotTask)
			results <- err
			return
		}
		close(gotTask)
		w.Close()
		results <- nil
	}()
	go func() {
		// Dial immediately (Accept needs both connections) but hold the
		// Ready message until the flaky worker owns a task.
		w, err := mpi.DialWorkerRetryCtx(context.Background(), master.Addr(), retry.Policy{Attempts: 1})
		if err != nil {
			results <- err
			return
		}
		defer w.Close()
		worker, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			results <- err
			return
		}
		<-gotTask
		results <- RunWorkerCtx(context.Background(), w, worker, WorkerOptions{})
	}()
	if err := master.AcceptCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	scores, err := RunMasterCtx(context.Background(), master, st.N, 8, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d", len(scores))
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}

// sendCount counts the messages sent through its transport, by tag.
type sendCount struct {
	mpi.Transport
	mu sync.Mutex
	n  map[mpi.Tag]int
}

func (s *sendCount) Send(to int, tag mpi.Tag, body []byte) error {
	s.mu.Lock()
	s.n[tag]++
	s.mu.Unlock()
	return s.Transport.Send(to, tag, body)
}

// TestWorkerSendsOneReportPerTask: with tracing and metrics on, a worker
// answers each task with exactly one TagResult, which carries its snapshot
// and spans; besides that it only announces itself and heartbeats.
func TestWorkerSendsOneReportPerTask(t *testing.T) {
	st := testStack(t)
	const nWorkers, taskSize = 2, 5
	tasks := (st.N + taskSize - 1) / taskSize
	comm, err := mpi.NewLocalComm(nWorkers+1, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]*sendCount, nWorkers)
	var wg sync.WaitGroup
	for r := 1; r <= nWorkers; r++ {
		counts[r-1] = &sendCount{Transport: comm.Rank(r), n: make(map[mpi.Tag]int)}
		w, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(tr mpi.Transport, r int) {
			defer wg.Done()
			opts := WorkerOptions{Obs: obs.NewRegistry(), Trace: trace.New(r), HeartbeatInterval: time.Millisecond}
			if err := RunWorkerCtx(context.Background(), tr, w, opts); err != nil {
				t.Error(err)
			}
		}(counts[r-1], r)
	}
	cm := &ClusterMetrics{}
	tracer := trace.New(0)
	if _, err := RunMasterCtx(context.Background(), comm.Rank(0), st.N, taskSize,
		MasterOptions{Obs: obs.NewRegistry(), Metrics: cm, Trace: tracer}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	results := 0
	for r, c := range counts {
		c.mu.Lock() // a heartbeat may still be on its way out
		defer c.mu.Unlock()
		for tag, n := range c.n {
			switch tag {
			case mpi.TagResult:
				results += n
			case mpi.TagReady, mpi.TagHeartbeat:
			default:
				t.Errorf("rank %d sent %d %v messages", r+1, n, tag)
			}
		}
	}
	if results != tasks {
		t.Errorf("workers sent %d results for %d tasks", results, tasks)
	}
	if got := cm.Merged().Counters["worker_tasks_total"]; got != uint64(tasks) {
		t.Errorf("the reports' snapshots count %d tasks, want %d", got, tasks)
	}
	workerTasks := 0
	for _, sp := range tracer.Drain() {
		if sp.Name == "worker/task" {
			workerTasks++
		}
	}
	if workerTasks != tasks {
		t.Errorf("the reports carried %d worker/task spans, want %d", workerTasks, tasks)
	}
}
