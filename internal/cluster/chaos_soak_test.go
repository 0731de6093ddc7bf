package cluster

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/mpi"
	"fcma/internal/retry"
)

// TestChaosSoakCompletesJournaledAnalysis is the end-to-end proof of the
// fault-tolerance layer: a TCP cluster of one stable worker plus a churning
// pool of chaos-wrapped workers (seeded injection of drops, delays,
// duplicates, transport errors, disconnects, and hangs — and worker-side
// task failures on top) must still complete a full journaled analysis with
// exactly one correct score per voxel. The journal writes through the chaos
// filesystem seam (slow fsyncs only: a failed journal write kills the
// master, which is the kill soaks' subject, not this one's).
//
// Skipped under -short so the fast tier stays fast; `make check` runs it
// with the race detector.
func TestChaosSoakCompletesJournaledAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	d, err := fmri.Generate(fmri.Spec{
		Name:             "chaos-soak",
		Voxels:           48,
		Subjects:         3,
		EpochsPerSubject: 6,
		EpochLen:         12,
		RestLen:          2,
		SignalVoxels:     8,
		Coupling:         0.8,
		Seed:             11,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := corr.BuildEpochStackContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mustWorker(t, st).ProcessContext(context.Background(), core.Task{V0: 0, V: st.N})
	if err != nil {
		t.Fatal(err)
	}

	master, err := mpi.ListenMaster("127.0.0.1:0", 4) // 3 initial workers
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	plan, err := chaos.NewPlan(chaos.Config{Seed: 17, FS: chaos.FSConfig{SlowSync: 0.2, MaxDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	jn, err := OpenJournal(plan.FS(chaos.OS()), filepath.Join(t.TempDir(), "soak.jnl"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()

	var (
		done     atomic.Bool
		mu       sync.Mutex
		closers  []io.Closer
		wg       sync.WaitGroup
		procCall atomic.Int64
		chaosSeq atomic.Int64
	)
	// track registers a connection for the cleanup to close; one made after
	// the cleanup ran (a worker rejoining as the run ends) is closed at once,
	// so no incarnation outlives the test.
	track := func(c io.Closer) {
		mu.Lock()
		defer mu.Unlock()
		if done.Load() {
			c.Close()
			return
		}
		closers = append(closers, c)
	}

	// The stable worker guarantees forward progress no matter what the
	// chaotic pool does; it rejoins if its connection is ever lost.
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := mustWorker(t, st)
		for !done.Load() {
			tr, err := mpi.DialWorkerRetryCtx(context.Background(), master.Addr(), retry.Policy{Attempts: 10, BaseDelay: 10 * time.Millisecond, Seed: 1})
			if err != nil {
				return
			}
			track(tr)
			err = RunWorkerCtx(context.Background(), tr, w, WorkerOptions{HeartbeatInterval: 20 * time.Millisecond})
			tr.Close()
			if err == nil {
				return // clean TagStop
			}
		}
	}()

	// Chaotic workers: every transport operation may drop, delay,
	// duplicate, error, disconnect, or hang, and every fifth task fails at
	// the processor on top. Incarnations that die are replaced by the
	// spawner below; incarnations that hang stay hung until cleanup,
	// standing in for a straggler node.
	flaky := funcProcessor(func(task core.Task) ([]core.VoxelScore, error) {
		time.Sleep(10 * time.Millisecond) // stretch the run so faults land mid-flight
		if procCall.Add(1)%5 == 0 {
			return nil, fmt.Errorf("injected task failure on voxels [%d,%d)", task.V0, task.V0+task.V)
		}
		return mustWorker(t, st).ProcessContext(context.Background(), task)
	})
	spawnChaotic := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := mpi.DialWorkerRetryCtx(context.Background(), master.Addr(), retry.Policy{Attempts: 5, BaseDelay: 10 * time.Millisecond, Seed: 2})
			if err != nil {
				return
			}
			ct, err := mpi.NewChaosTransport(tr, mpi.ChaosConfig{
				Seed:       1000 + chaosSeq.Add(1),
				Drop:       0.03,
				Delay:      0.20,
				Duplicate:  0.05,
				Error:      0.04,
				Disconnect: 0.04,
				Hang:       0.02,
				MaxDelay:   2 * time.Millisecond,
			})
			if err != nil {
				t.Error(err)
				tr.Close()
				return
			}
			track(ct)
			_ = RunWorkerCtx(context.Background(), ct, flaky, WorkerOptions{HeartbeatInterval: 20 * time.Millisecond})
			ct.Close()
		}()
	}
	spawnChaotic()
	spawnChaotic()
	wg.Add(1)
	go func() { // keep the chaotic pool churning while the run lasts
		defer wg.Done()
		for i := 0; i < 10 && !done.Load(); i++ {
			time.Sleep(100 * time.Millisecond)
			if !done.Load() {
				spawnChaotic()
			}
		}
	}()

	// The deadline turns a broken protocol into a failure of this test
	// within seconds, not a hang that hides every later test in the package
	// until go test's timeout. A clean run takes well under a second.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := master.AcceptCtx(ctx); err != nil {
		t.Fatal(err)
	}
	scores, err := RunMasterCtx(ctx, master, st.N, 3, MasterOptions{
		Journal:          jn,
		TaskDeadline:     150 * time.Millisecond,
		HeartbeatTimeout: 300 * time.Millisecond,
		TaskRetries:      100,
		WorkerErrorLimit: 3,
	})
	done.Store(true)
	mu.Lock()
	for _, c := range closers {
		c.Close() // releases any incarnation hung by injected faults
	}
	mu.Unlock()
	wg.Wait()
	if err != nil {
		t.Fatalf("soak run aborted: %v", err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d, want exactly %d", len(scores), st.N)
	}
	for i, s := range scores {
		if s != ref[i] {
			t.Fatalf("voxel %d: %+v, want %+v (chaos must not corrupt results)", i, s, ref[i])
		}
	}
	if jn.Done() != st.N {
		t.Fatalf("journal holds %d of %d voxels", jn.Done(), st.N)
	}
}

func mustWorker(t *testing.T, st *corr.EpochStack) *core.Worker {
	t.Helper()
	w, err := core.NewWorker(core.Optimized(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
