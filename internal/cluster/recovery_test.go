package cluster

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/mpi"
	"fcma/internal/obs"
	"fcma/internal/retry"
)

// recoveryHarness is the shared machinery of the master-kill tests: a
// pool of worker goroutines that redial a fixed address across master
// incarnations, with a processor that records every voxel range it is
// asked to compute so the tests can prove journaled-complete ranges are
// never recomputed.
type recoveryHarness struct {
	t     *testing.T
	st    *corr.EpochStack
	done  atomic.Bool
	wg    sync.WaitGroup
	mu    sync.Mutex
	procs map[int]int // V0 -> times processed across all incarnations

	// frozen holds the set of journal-complete V0s as of the current
	// master incarnation; a Process call on a frozen range is a
	// recomputation violation.
	frozen     atomic.Pointer[map[int]bool]
	violations atomic.Int64
}

func newRecoveryHarness(t *testing.T, st *corr.EpochStack) *recoveryHarness {
	h := &recoveryHarness{t: t, st: st, procs: make(map[int]int)}
	empty := map[int]bool{}
	h.frozen.Store(&empty)
	return h
}

// freeze snapshots the journal's completed ranges at incarnation start.
func (h *recoveryHarness) freeze(jn *Journal, totalVoxels, taskSize int) map[int]bool {
	f := make(map[int]bool)
	done := journaledVoxels(jn)
	for v0 := 0; v0 < totalVoxels; v0 += taskSize {
		all := true
		for i := v0; i < min(v0+taskSize, totalVoxels); i++ {
			all = all && done[i]
		}
		if all {
			f[v0] = true
		}
	}
	h.frozen.Store(&f)
	return f
}

// processor returns a TaskProcessor that computes real scores while
// booking every call and flagging recomputation of frozen ranges.
func (h *recoveryHarness) processor() TaskProcessor {
	return funcProcessor(func(task core.Task) ([]core.VoxelScore, error) {
		if (*h.frozen.Load())[task.V0] {
			h.violations.Add(1)
		}
		h.mu.Lock()
		h.procs[task.V0]++
		h.mu.Unlock()
		return mustWorker(h.t, h.st).ProcessContext(context.Background(), task)
	})
}

// startWorker runs one worker goroutine that keeps redialing addr (with
// the existing DialWorkerRetry backoff path) and serving tasks until the
// harness is done — exactly how a real worker rides out a master crash
// and reconnects to its replacement. chaosSeed != 0 wraps every
// incarnation's transport in a seeded ChaosTransport.
func (h *recoveryHarness) startWorker(addr string, chaosSeed int64) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		proc := h.processor()
		seq := int64(0)
		for !h.done.Load() {
			tr, err := mpi.DialWorkerRetryCtx(context.Background(), addr, retry.Policy{
				Attempts: 20, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Seed: chaosSeed + 1,
			})
			if err != nil {
				continue // master between incarnations; keep trying until done
			}
			var wtr mpi.Transport = tr
			if chaosSeed != 0 {
				seq++
				ct, cerr := mpi.NewChaosTransport(tr, mpi.ChaosConfig{
					Seed:      chaosSeed + seq,
					Drop:      0.02,
					Delay:     0.10,
					Duplicate: 0.03,
					Error:     0.02,
					MaxDelay:  2 * time.Millisecond,
				})
				if cerr != nil {
					h.t.Error(cerr)
					tr.Close()
					return
				}
				wtr = ct
			}
			err = RunWorkerCtx(context.Background(), wtr, proc, WorkerOptions{
				HeartbeatInterval: 20 * time.Millisecond,
				Obs:               obs.NewRegistry(),
			})
			wtr.Close()
			if err == nil && h.done.Load() {
				return // clean TagStop after the run completed
			}
		}
	}()
}

// masterCuts crashes a master from outside: the transport it wraps is
// closed as it delivers the result at each of the chosen cumulative
// counts, counted across every incarnation that shares the schedule. The
// master then sees its receive fail and returns without a stop
// broadcast, and its workers lose their connections, as after kill -9.
type masterCuts struct {
	mu      sync.Mutex
	at      []int // cumulative TagResult counts, strictly increasing
	results int
	fired   int
}

// errMasterCut is what a cut master's receive reports.
var errMasterCut = errors.New("master transport cut")

// wrap puts one incarnation's transport under the schedule.
func (c *masterCuts) wrap(inner mpi.Transport) *cutTransport {
	return &cutTransport{Transport: inner, cuts: c}
}

// result counts one delivered result and reports whether a cut falls on
// it.
func (c *masterCuts) result() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results++
	if c.fired < len(c.at) && c.results >= c.at[c.fired] {
		c.fired++
		return true
	}
	return false
}

// cuts reports how many cuts have fired.
func (c *masterCuts) cuts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

type cutTransport struct {
	mpi.Transport
	cuts *masterCuts
	cut  atomic.Bool
}

func (t *cutTransport) Recv() (mpi.Message, error) {
	if t.cut.Load() {
		return mpi.Message{}, errMasterCut
	}
	msg, err := t.Transport.Recv()
	if err == nil && msg.Tag == mpi.TagResult && t.cuts.result() {
		t.cut.Store(true)
		t.Transport.Close()
	}
	return msg, err
}

// TestMasterKillResumeBitExact is the end-to-end proof of master crash
// recovery: an in-process cluster whose master is crashed mid-run at
// every cumulative result count from 1 to its task count (its transport
// cut as it hands the master that result, under ChaosTransport message
// faults and delays and chaosfs journal faults) and resumed from its
// journal must
//
//   - complete with scores bit-exact to an uninterrupted run,
//   - never recompute a journaled-complete voxel range (asserted both at
//     the processors, which book every range they compute, and via the
//     master's task-issue/skip counters), and
//   - keep reconnecting workers through the existing DialWorkerRetry
//     backoff path.
func TestMasterKillResumeBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("master-kill recovery soak skipped in -short mode")
	}
	d, err := fmri.Generate(fmri.Spec{
		Name:             "kill-resume",
		Voxels:           48,
		Subjects:         3,
		EpochsPerSubject: 6,
		EpochLen:         12,
		RestLen:          2,
		SignalVoxels:     8,
		Coupling:         0.8,
		Seed:             23,
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
	const taskSize = 3

	plan, err := chaos.NewPlan(chaos.Config{
		Seed: 41,
		// Journal writes run through chaosfs: occasional torn appends
		// (surfacing as extra master crashes) and slow fsyncs.
		FS: chaos.FSConfig{TornWrite: 0.02, SlowSync: 0.2, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crash the master at every cumulative result count from 1 to the
	// task count: each incarnation dies on the result it is handed.
	tasks := (st.N + taskSize - 1) / taskSize
	cuts := &masterCuts{}
	for n := 1; n <= tasks; n++ {
		cuts.at = append(cuts.at, n)
	}

	jpath := t.TempDir() + "/run.jnl"
	h := newRecoveryHarness(t, st)

	// The first incarnation picks the port; workers redial it across every
	// master restart.
	first, err := mpi.ListenMaster("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	addr := first.Addr()
	h.startWorker(addr, 0)    // one stable worker
	h.startWorker(addr, 9000) // one worker behind a seeded ChaosTransport

	var (
		scores     []core.VoxelScore
		crashes    int
		lastErr    error
		totalSkips uint64
	)
	for incarnation := 0; ; incarnation++ {
		if incarnation >= 40 {
			t.Fatalf("master did not finish within 40 incarnations; last error: %v", lastErr)
		}
		master := first
		if master == nil {
			master, err = mpi.ListenMaster(addr, 3)
			if err != nil {
				t.Fatal(err)
			}
		}
		first = nil
		jn, err := OpenJournal(plan.FS(chaos.OS()), jpath, nil)
		if err != nil {
			// Chaos can tear journal creation; that too is a crash to ride out.
			master.Close()
			crashes++
			lastErr = err
			continue
		}
		frozen := h.freeze(jn, st.N, taskSize)
		if err := master.AcceptCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		// The master's own sends and receives are held up now and then.
		delayed, err := mpi.NewChaosTransport(master, mpi.ChaosConfig{
			Seed: 41 + int64(incarnation), Delay: 0.05, MaxDelay: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		tr := cuts.wrap(delayed)
		scores, err = RunMasterCtx(context.Background(), tr, st.N, taskSize, MasterOptions{
			Journal:          jn,
			HeartbeatTimeout: 500 * time.Millisecond,
			TaskDeadline:     300 * time.Millisecond,
			TaskRetries:      1000,
			WorkerErrorLimit: 1000,
			Obs:              reg,
		})
		// Counter-level zero-recompute assertion: the master must have
		// skipped exactly the journaled-complete tasks and issued no
		// assignment for any of them.
		if got := reg.Counter("cluster_tasks_skipped_journaled_total").Value(); got != uint64(len(frozen)) {
			t.Fatalf("incarnation %d: skipped %d journaled tasks, want %d", incarnation, got, len(frozen))
		}
		totalSkips += uint64(len(frozen))
		master.Close()
		jn.Close()
		if err == nil && tr.cut.Load() {
			// The cut fell on the result that completed the run: the master
			// dies after journaling it and before it returns, so its scores
			// are lost, and the next incarnation rebuilds them from the
			// journal alone.
			err = errMasterCut
		}
		if err == nil {
			break
		}
		crashes++
		lastErr = err
		// Only transport cuts and chaos-faulted journal writes may take an
		// incarnation down; anything else is a real protocol failure.
		if !errors.Is(err, errMasterCut) && !errors.Is(err, syscall.EIO) && !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("incarnation %d died with unexpected error: %v", incarnation, err)
		}
	}
	h.done.Store(true)
	h.wg.Wait()

	if cuts.cuts() < len(cuts.at) {
		t.Fatalf("%d transport cuts fired, want >= %d", cuts.cuts(), len(cuts.at))
	}
	if crashes < len(cuts.at) {
		t.Fatalf("master crashed %d times, want >= %d", crashes, len(cuts.at))
	}
	if totalSkips == 0 {
		t.Fatal("no incarnation resumed journaled state; the recovery path never ran")
	}
	if v := h.violations.Load(); v != 0 {
		t.Fatalf("%d journaled-complete voxel ranges were recomputed; the journal must prevent every one", v)
	}
	t.Logf("%d crashes (%d transport cuts), %d cumulative journal-skipped tasks", crashes, cuts.cuts(), totalSkips)
	if len(scores) != st.N {
		t.Fatalf("final run scored %d of %d voxels", len(scores), st.N)
	}
	for i, s := range scores {
		if s != ref[i] {
			t.Fatalf("voxel %d: %+v, want bit-exact %+v (crash recovery must not perturb scores)", i, s, ref[i])
		}
	}
}

// TestJournaledResume aborts an analysis partway — its only worker dies
// after two tasks — then resumes from the journal with a healthy worker.
// The resumed run must process exactly the other two tasks, and its scores
// and its top-K must equal an uninterrupted run's. The accuracies here are
// multiples of 1/18, so the restored ones include fractions a "%.6f" CSV
// cannot carry: a restored 0.833333 no longer ties a fresh
// 0.8333333333333334, and core.TopVoxels would rank it below every fresh
// voxel of the same accuracy.
func TestJournaledResume(t *testing.T) {
	st := testStack(t)
	ref, err := mustWorker(t, st).ProcessContext(context.Background(), core.Task{V0: 0, V: st.N})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/run.jnl"

	// Phase 1: a worker that completes two tasks of 8, then crashes.
	jn, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := mpi.NewLocalComm(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := mustWorker(t, st)
		scriptedRank(t, comm.Rank(1), func(n int, tm taskMsg) ([]wireMsg, bool) {
			if n > 2 {
				return nil, false
			}
			scores, err := w.ProcessContext(context.Background(), core.Task{V0: tm.V0, V: tm.V})
			if err != nil {
				t.Error(err)
			}
			return []wireMsg{resultOf(t, tm, scores)}, true
		})
	}()
	_, err = RunMasterCtx(context.Background(), comm.Rank(0), st.N, 8, MasterOptions{Journal: jn})
	wg.Wait()
	if err == nil {
		t.Fatal("phase 1 should abort when its only worker dies")
	}
	if jn.Done() != 16 {
		t.Fatalf("journal holds %d voxels after 2 tasks of 8", jn.Done())
	}
	jn.Close()

	// Phase 2: resume with a healthy worker.
	jn2, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	if jn2.Done() != 16 {
		t.Fatalf("reopened journal holds %d voxels", jn2.Done())
	}
	inexact := 0
	for _, s := range jn2.Scores() {
		if back, _ := strconv.ParseFloat(strconv.FormatFloat(s.Accuracy, 'f', 6, 64), 64); back != s.Accuracy {
			inexact++
		}
	}
	if inexact == 0 {
		t.Fatal("every restored accuracy survives six decimals; the dataset no longer exercises the bit-exact restore")
	}
	comm2, err := mpi.NewLocalComm(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	var processed atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := mustWorker(t, st)
		counting := funcProcessor(func(task core.Task) ([]core.VoxelScore, error) {
			processed.Add(1)
			return w.ProcessContext(context.Background(), task)
		})
		if err := RunWorkerCtx(context.Background(), comm2.Rank(1), counting, WorkerOptions{}); err != nil {
			t.Error(err)
		}
	}()
	scores, err := RunMasterCtx(context.Background(), comm2.Rank(0), st.N, 8, MasterOptions{Journal: jn2})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// 32 voxels / 8 per task = 4 tasks; 2 were journaled.
	if got := processed.Load(); got != 2 {
		t.Fatalf("resume processed %d tasks, want 2 (skip completed)", got)
	}
	if len(scores) != len(ref) {
		t.Fatalf("final scores = %d of %d", len(scores), len(ref))
	}
	for i, s := range scores {
		if s != ref[i] {
			t.Fatalf("voxel %d: %+v, want bit-exact %+v", i, s, ref[i])
		}
	}
	for _, k := range []int{4, 8, 16} {
		got, want := core.TopVoxels(scores, k), core.TopVoxels(ref, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("top-%d rank %d: resumed run has %+v, uninterrupted run %+v", k, i, got[i], want[i])
			}
		}
	}
}

// journaledVoxels is the set of voxels the journal's replayed scores
// cover — what a resumed master seeds its merge with.
func journaledVoxels(jn *Journal) map[int]bool {
	done := make(map[int]bool)
	for _, s := range jn.Scores() {
		done[s.Voxel] = true
	}
	return done
}
