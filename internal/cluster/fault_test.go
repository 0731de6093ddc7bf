package cluster

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fcma/internal/core"
	"fcma/internal/mpi"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
)

// funcProcessor adapts a function to TaskProcessor for fault scripting.
type funcProcessor func(core.Task) ([]core.VoxelScore, error)

func (f funcProcessor) ProcessContext(_ context.Context, t core.Task) ([]core.VoxelScore, error) {
	return f(t)
}

// TestSingleErrorDoesNotAbortRun is the error-containment acceptance case:
// one worker fails every task it touches, yet the run completes because
// each failed task is retried on the healthy worker, and the failing
// worker is quarantined (stopped) after repeated errors instead of sinking
// the analysis.
func TestSingleErrorDoesNotAbortRun(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	quarantined := make(chan struct{})
	broken := funcProcessor(func(task core.Task) ([]core.VoxelScore, error) {
		if calls.Add(1) == 3 {
			close(quarantined) // third error hits the limit; healthy help may join
		}
		return nil, fmt.Errorf("injected failure on voxels [%d,%d)", task.V0, task.V0+task.V)
	})
	var wg sync.WaitGroup
	wg.Add(2)
	masterDone, brokenFailed := make(chan struct{}), make(chan struct{})
	go func() {
		defer wg.Done()
		// The broken worker must end via the master's quarantine TagStop,
		// i.e. RunWorkerCtx returns nil, not with an error of its own.
		if err := RunWorkerCtx(context.Background(), comm.Rank(1), broken, WorkerOptions{}); err != nil {
			t.Errorf("broken worker exit: %v", err)
			close(brokenFailed)
		}
	}()
	go func() {
		defer wg.Done()
		// Joining only after the broken worker has burned through its
		// error limit makes the quarantine path deterministic: until then
		// it is the sole live worker and keeps receiving retries. A master
		// that stops first leaves nothing to join; a broken worker that
		// fails on its own leaves the master waiting for this one.
		select {
		case <-quarantined:
		case <-brokenFailed:
		case <-masterDone:
			return
		}
		w, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := RunWorkerCtx(context.Background(), comm.Rank(2), w, WorkerOptions{}); err != nil {
			t.Error(err)
		}
	}()
	scores, err := RunMasterCtx(context.Background(), comm.Rank(0), st.N, 8, MasterOptions{WorkerErrorLimit: 3, TaskRetries: 5})
	close(masterDone)
	wg.Wait()
	if err != nil {
		t.Fatalf("a single worker's errors aborted the run: %v", err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d of %d", len(scores), st.N)
	}
	for i, s := range scores {
		if s.Voxel != i {
			t.Fatalf("missing voxel %d", i)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("broken worker processed %d tasks, want exactly 3 (quarantined at the error limit)", got)
	}
}

// TestTaskRetryBudgetExhaustionAborts proves the flip side: a task that
// fails everywhere is a deterministic failure and must abort the run once
// its budget is spent, with the workers cleanly stopped.
func TestTaskRetryBudgetExhaustionAborts(t *testing.T) {
	comm, err := mpi.NewLocalComm(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	broken := funcProcessor(func(task core.Task) ([]core.VoxelScore, error) {
		return nil, fmt.Errorf("always broken")
	})
	var wg sync.WaitGroup
	for r := 1; r <= 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_ = RunWorkerCtx(context.Background(), comm.Rank(r), broken, WorkerOptions{})
		}(r)
	}
	_, err = RunMasterCtx(context.Background(), comm.Rank(0), 16, 16, MasterOptions{TaskRetries: 2, WorkerErrorLimit: 100})
	wg.Wait()
	if err == nil {
		t.Fatal("deterministically failing task did not abort the run")
	}
}

// hangingWorker takes one task and then sits on it forever without
// disconnecting — the straggler the paper-scale deployment fears most. It
// stays mute (no heartbeats) unless beat is positive.
func hangingWorker(t *testing.T, tr mpi.Transport, gotTask chan<- struct{}, release <-chan struct{}) {
	t.Helper()
	if err := tr.Send(0, mpi.TagReady, nil); err != nil {
		t.Error(err)
		close(gotTask)
		return
	}
	msg, err := tr.Recv()
	if err != nil || msg.Tag != mpi.TagTask {
		t.Errorf("hanging worker got %v, err %v", msg.Tag, err)
		close(gotTask)
		return
	}
	close(gotTask)
	<-release // hold the task, never reply, never disconnect
}

// TestHungWorkerTaskReissuedAfterDeadline is the liveness acceptance case:
// a worker that hangs mid-task without disconnecting stalls nothing — its
// task is speculatively re-issued to an idle worker once the deadline
// passes, and the final score set is complete and deduplicated.
func TestHungWorkerTaskReissuedAfterDeadline(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	gotTask := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		hangingWorker(t, comm.Rank(1), gotTask, release)
	}()
	go func() {
		defer wg.Done()
		<-gotTask // join once the hung worker owns a task
		w, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := RunWorkerCtx(context.Background(), comm.Rank(2), w, WorkerOptions{HeartbeatInterval: 10 * time.Millisecond}); err != nil {
			t.Error(err)
			comm.Rank(1).Close() // the hung rank alone would hold the run for ever
		}
	}()
	scores, err := RunMasterCtx(context.Background(), comm.Rank(0), st.N, 8, MasterOptions{TaskDeadline: 60 * time.Millisecond})
	close(release)
	wg.Wait()
	if err != nil {
		t.Fatalf("run with a hung worker did not complete: %v", err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d of %d", len(scores), st.N)
	}
	for i, s := range scores {
		if s.Voxel != i {
			t.Fatalf("scores not complete and deduplicated at %d: voxel %d", i, s.Voxel)
		}
	}
}

// TestHeartbeatTimeoutMarksWorkerDead: a worker that goes silent (no
// heartbeats, never disconnects) is declared dead after the timeout and
// its task requeued to a live worker.
func TestHeartbeatTimeoutMarksWorkerDead(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	gotTask := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		hangingWorker(t, comm.Rank(1), gotTask, release) // mute: no heartbeats
	}()
	go func() {
		defer wg.Done()
		<-gotTask
		w, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := RunWorkerCtx(context.Background(), comm.Rank(2), w, WorkerOptions{HeartbeatInterval: 10 * time.Millisecond}); err != nil {
			t.Error(err)
		}
	}()
	scores, err := RunMasterCtx(context.Background(), comm.Rank(0), st.N, 8, MasterOptions{HeartbeatTimeout: 80 * time.Millisecond})
	close(release)
	wg.Wait()
	if err != nil {
		t.Fatalf("run with a heartbeat-silent worker did not complete: %v", err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d of %d", len(scores), st.N)
	}
}

// TestDuplicateAndStaleResultsDeduplicated scripts a worker that delivers
// every result twice and additionally replays its previous (stale) result
// before each new one — the master must count every voxel exactly once.
func TestDuplicateAndStaleResultsDeduplicated(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr := comm.Rank(1)
		w, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := tr.Send(0, mpi.TagReady, nil); err != nil {
			t.Error(err)
			return
		}
		var stale []byte
		for {
			msg, err := tr.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			if msg.Tag == mpi.TagStop {
				return
			}
			var tm taskMsg
			if err := decode(msg.Body, &tm); err != nil {
				t.Error(err)
				return
			}
			scores, err := w.ProcessContext(context.Background(), core.Task{V0: tm.V0, V: tm.V})
			if err != nil {
				t.Error(err)
				return
			}
			body, err := encode(report{Task: tm, Scores: scores})
			if err != nil {
				t.Error(err)
				return
			}
			if stale != nil {
				// Replay the previous task's result, as a speculative
				// duplicate arriving late would.
				if err := tr.Send(0, mpi.TagResult, stale); err != nil {
					t.Error(err)
					return
				}
			}
			// Deliver the fresh result twice.
			for i := 0; i < 2; i++ {
				if err := tr.Send(0, mpi.TagResult, body); err != nil {
					t.Error(err)
					return
				}
			}
			stale = body
		}
	}()
	scores, err := RunMasterCtx(context.Background(), comm.Rank(0), st.N, 8, MasterOptions{})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d of %d (duplicates must not inflate or starve the set)", len(scores), st.N)
	}
	for i, s := range scores {
		if s.Voxel != i {
			t.Fatalf("voxel %d missing or duplicated", i)
		}
	}
}

// wireMsg is one message a scripted rank sends the master.
type wireMsg struct {
	tag  mpi.Tag
	body []byte
}

// resultOf and errorOf build the worker's two reports on a task by hand.
func resultOf(t *testing.T, tm taskMsg, scores []core.VoxelScore) wireMsg {
	t.Helper()
	body, err := encode(report{Task: tm, Scores: scores})
	if err != nil {
		t.Fatal(err)
	}
	return wireMsg{mpi.TagResult, body}
}

func errorOf(t *testing.T, tm taskMsg, detail string) wireMsg {
	t.Helper()
	body, err := encode(report{Task: tm, Err: detail})
	if err != nil {
		t.Fatal(err)
	}
	return wireMsg{mpi.TagResult, body}
}

// scriptedRank speaks the worker protocol on tr by hand: it announces
// itself, and for the n-th task message it receives (counting from 1) sends
// whatever script returns, in order. A false second return closes the
// transport instead — a crash. It returns on TagStop.
func scriptedRank(t *testing.T, tr mpi.Transport, script func(n int, tm taskMsg) ([]wireMsg, bool)) {
	t.Helper()
	if err := tr.Send(0, mpi.TagReady, nil); err != nil {
		t.Error(err)
		return
	}
	for n := 1; ; n++ {
		msg, err := tr.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		if msg.Tag == mpi.TagStop {
			return
		}
		var tm taskMsg
		if err := decode(msg.Body, &tm); err != nil {
			t.Error(err)
			return
		}
		out, ok := script(n, tm)
		if !ok {
			tr.Close()
			return
		}
		for _, m := range out {
			if err := tr.Send(0, m.tag, m.body); err != nil {
				t.Error(err)
				return
			}
		}
	}
}

// runLostTaskScript runs a one-rank cluster against script under a 5 s
// budget and requires every voxel scored: no luck and no chaos, so a task
// the master forgets shows up as "context deadline exceeded".
func runLostTaskScript(t *testing.T, script func(n int, tm taskMsg) ([]wireMsg, bool)) {
	t.Helper()
	st := testStack(t)
	comm, err := mpi.NewLocalComm(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		scriptedRank(t, comm.Rank(1), script)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	scores, err := RunMasterCtx(ctx, comm.Rank(0), st.N, 8, MasterOptions{TaskDeadline: 50 * time.Millisecond})
	wg.Wait()
	if err != nil {
		t.Fatalf("the master lost a task: %v", err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d of %d", len(scores), st.N)
	}
}

// TestDuplicateResultDoesNotUnbookNextTask is the lost-task hang, scripted:
// the rank answers its first task twice and never answers the first copy
// of its second. The duplicate arrives while the rank holds the second
// task; a master that lets it clear "whatever the rank holds" forgets that
// task — it is in no queue and on no rank — and waits forever. The result
// must retire only the copy of the task it is about, so the deadline finds
// the unanswered task and renews it.
func TestDuplicateResultDoesNotUnbookNextTask(t *testing.T) {
	runLostTaskScript(t, func(n int, tm taskMsg) ([]wireMsg, bool) {
		res := resultOf(t, tm, okScores(tm))
		switch n {
		case 1:
			return []wireMsg{res, res}, true
		case 2:
			return nil, true
		}
		return []wireMsg{res}, true
	})
}

// TestStaleErrorDoesNotUnbookNextTask is the same hang through an error
// report: the rank fails its first task, completes the retry, and then —
// holding the second task, whose first copy it never answers — its error
// report for the first task arrives again.
func TestStaleErrorDoesNotUnbookNextTask(t *testing.T) {
	var first taskMsg
	runLostTaskScript(t, func(n int, tm taskMsg) ([]wireMsg, bool) {
		switch n {
		case 1:
			first = tm
			return []wireMsg{errorOf(t, tm, "injected failure")}, true
		case 3:
			if tm.V0 == first.V0 {
				t.Errorf("third assignment is voxels [%d,%d) again; the script needs a second task here", tm.V0, tm.V0+tm.V)
			}
			return []wireMsg{errorOf(t, first, "injected failure, delivered again")}, true
		}
		return []wireMsg{resultOf(t, tm, okScores(tm))}, true
	})
}

// okScores is okProcessor's answer to the task.
func okScores(tm taskMsg) []core.VoxelScore {
	scores, _ := okProcessor{}.ProcessContext(context.Background(), core.Task{V0: tm.V0, V: tm.V})
	return scores
}

// TestMisnamedWireInputContained scripts a rank whose messages name voxels
// and tasks that are not its own. Its first six answers each name a task at
// V0 = -taskSize, at V0+1 or past the table: a result carrying the held
// task's scores, then an error report, for each. Every one must fail the
// held task through taskFailed, which retries it, and none may panic. Each
// real result then carries three strays before the task's own scores:
// voxel -1, voxel N and the first voxel past the task, with an accuracy no
// classifier reports. The strays must be dropped and counted, and the final
// scores must equal a clean run's.
func TestMisnamedWireInputContained(t *testing.T) {
	st := testStack(t)
	const taskSize = 8
	tasks := (st.N + taskSize - 1) / taskSize
	w, err := core.NewWorker(core.Optimized(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rank func(mpi.Transport), reg *obs.Registry) []core.VoxelScore {
		t.Helper()
		comm, err := mpi.NewLocalComm(2, 64)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rank(comm.Rank(1))
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		scores, err := RunMasterCtx(ctx, comm.Rank(0), st.N, taskSize,
			MasterOptions{Obs: reg, TaskRetries: 10, WorkerErrorLimit: 100})
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return scores
	}
	clean := run(func(tr mpi.Transport) {
		if err := RunWorkerCtx(context.Background(), tr, w, WorkerOptions{}); err != nil {
			t.Error(err)
		}
	}, obs.NewRegistry())

	misnamed := []func(v0 int) int{
		func(int) int { return -taskSize },
		func(v0 int) int { return v0 + 1 },
		func(int) int { return tasks * taskSize },
	}
	reg := obs.NewRegistry()
	got := run(func(tr mpi.Transport) {
		scriptedRank(t, tr, func(n int, tm taskMsg) ([]wireMsg, bool) {
			scores, err := w.ProcessContext(context.Background(), core.Task{V0: tm.V0, V: tm.V})
			if err != nil {
				t.Error(err)
			}
			if n <= 2*len(misnamed) {
				bad := tm
				bad.V0 = misnamed[(n-1)/2](tm.V0)
				if n%2 == 1 {
					return []wireMsg{resultOf(t, bad, scores)}, true
				}
				return []wireMsg{errorOf(t, bad, "misnamed task")}, true
			}
			strays := []core.VoxelScore{{Voxel: -1, Accuracy: -1}, {Voxel: st.N, Accuracy: -1}, {Voxel: tm.V0 + tm.V, Accuracy: -1}}
			return []wireMsg{resultOf(t, tm, append(strays, scores...))}, true
		})
	}, reg)

	if len(got) != len(clean) {
		t.Fatalf("scores = %d, want the clean run's %d", len(got), len(clean))
	}
	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("score %d = %+v, clean run has %+v", i, got[i], clean[i])
		}
	}
	if n := reg.Counter("cluster_tasks_retried_total").Value(); n != uint64(2*len(misnamed)) {
		t.Errorf("cluster_tasks_retried_total = %d, want %d: one per misnamed message", n, 2*len(misnamed))
	}
	if n := reg.Counter("cluster_dedup_dropped_voxels_total").Value(); n != uint64(3*tasks) {
		t.Errorf("cluster_dedup_dropped_voxels_total = %d, want %d: three strays per task", n, 3*tasks)
	}
}

// nullTransport is rank 0 of a two-rank world whose sends go nowhere.
type nullTransport struct{}

func (nullTransport) Rank() int                       { return 0 }
func (nullTransport) Size() int                       { return 2 }
func (nullTransport) Send(int, mpi.Tag, []byte) error { return nil }
func (nullTransport) Recv() (mpi.Message, error)      { return mpi.Message{}, mpi.ErrClosed }
func (nullTransport) Close() error                    { return nil }

// FuzzMasterReport feeds arbitrary bytes to the master as the TagResult body
// of a rank that holds a task. The master must not panic, and it may book
// only scores of the voxels of the task the body names, and only when the
// body decodes to a successful report on a task of the partition. The seeds
// are a valid report and the misnamed reports of
// TestMisnamedWireInputContained.
func FuzzMasterReport(f *testing.F) {
	const n, taskSize = 32, 8
	held := taskMsg{V0: taskSize, V: taskSize}
	add := func(rep report) {
		body, err := encode(rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	scores := okScores(held)
	add(report{Task: held, Scores: scores, Metrics: obs.NewRegistry().Snapshot(),
		Spans: []trace.Span{{Name: "worker/task", PID: 1}}})
	for _, v0 := range []int{-taskSize, held.V0 + 1, n} {
		bad := held
		bad.V0 = v0
		add(report{Task: bad, Scores: scores})
		add(report{Task: bad, Err: "misnamed task"})
	}
	strays := []core.VoxelScore{{Voxel: -1, Accuracy: -1}, {Voxel: n, Accuracy: -1}, {Voxel: held.V0 + held.V, Accuracy: -1}}
	add(report{Task: held, Scores: append(strays, scores...)})
	f.Add([]byte("not a report"))

	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := newMaster(nullTransport{}, n, taskSize,
			MasterOptions{Obs: obs.NewRegistry(), Metrics: &ClusterMetrics{}, Trace: trace.New(0)})
		if err != nil {
			t.Fatal(err)
		}
		m.touch(1, time.Now())
		if sent, err := m.sendTask(1, &m.tasks[held.V0/taskSize], time.Now()); !sent || err != nil {
			t.Fatalf("could not hand rank 1 its task: %v", err)
		}
		_ = m.handle(mpi.Message{From: 1, Tag: mpi.TagResult, Body: body})

		var rep report
		ok := decode(body, &rep) == nil && rep.Err == ""
		tm := rep.Task
		if ok {
			ok = tm.V0 >= 0 && tm.V0%taskSize == 0 && tm.V0 < n && tm.V == min(taskSize, n-tm.V0)
		}
		booked := 0
		for v, have := range m.have {
			if !have {
				continue
			}
			booked++
			if !ok || v < tm.V0 || v >= tm.V0+tm.V {
				t.Fatalf("booked voxel %d from a report naming voxels [%d,%d) (a successful report on a task: %v)",
					v, tm.V0, tm.V0+tm.V, ok)
			}
			if m.scores[v].Voxel != v {
				t.Fatalf("voxel %d holds the score of voxel %d", v, m.scores[v].Voxel)
			}
		}
		if m.unscored != n-booked {
			t.Fatalf("%d voxels unscored with %d of %d booked", m.unscored, booked, n)
		}
	})
}

// workerScript is rank 1 of a two-rank world: Recv hands out the scripted
// messages from the master and then reports the transport closed; Send
// records what the worker sends.
type workerScript struct {
	mu   sync.Mutex
	in   []mpi.Message
	sent []mpi.Message
}

func (s *workerScript) Rank() int    { return 1 }
func (s *workerScript) Size() int    { return 2 }
func (s *workerScript) Close() error { return nil }

func (s *workerScript) Send(_ int, tag mpi.Tag, body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sent = append(s.sent, mpi.Message{From: 1, Tag: tag, Body: body})
	return nil
}

func (s *workerScript) Recv() (mpi.Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.in) == 0 {
		return mpi.Message{}, mpi.ErrClosed
	}
	msg := s.in[0]
	s.in = s.in[1:]
	return msg, nil
}

// FuzzWorkerTask feeds arbitrary bytes to a worker as the body of a task
// message, followed by a stop. The worker must not panic, must stop
// cleanly, and must answer the task with exactly one report. A body that
// does not decode, or names voxels outside [0, N), gets a report with Err
// set and no scores — a refusal, not a panic the worker contained; any
// other task gets the scores of exactly its voxels.
func FuzzWorkerTask(f *testing.F) {
	st := testStack(f)
	n := st.N
	w, err := core.NewWorker(core.Optimized(), st, nil)
	if err != nil {
		f.Fatal(err)
	}
	add := func(tm taskMsg) []byte {
		body, err := encode(tm)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		return body
	}
	valid := add(taskMsg{V0: 4, V: 8, Trace: 1, Span: 2})
	f.Add(valid[:len(valid)/2])
	add(taskMsg{V0: -1, V: 8})
	add(taskMsg{V0: 4, V: 0})
	add(taskMsg{V0: n - 4, V: 8})
	add(taskMsg{V0: math.MaxInt - 1, V: 8}) // V0+V wraps negative

	f.Fuzz(func(t *testing.T, body []byte) {
		tr := &workerScript{in: []mpi.Message{{Tag: mpi.TagTask, Body: body}, {Tag: mpi.TagStop}}}
		if err := RunWorkerCtx(context.Background(), tr, w, WorkerOptions{HeartbeatInterval: -1, Obs: obs.NewRegistry()}); err != nil {
			t.Fatalf("worker: %v", err)
		}
		var reports []mpi.Message
		for _, m := range tr.sent {
			if m.Tag == mpi.TagResult {
				reports = append(reports, m)
			}
		}
		if len(reports) != 1 {
			t.Fatalf("worker sent %d reports on one task, want 1 (all sends: %v)", len(reports), tr.sent)
		}
		var rep report
		if err := decode(reports[0].Body, &rep); err != nil {
			t.Fatalf("worker's report does not decode: %v", err)
		}
		var tm taskMsg
		if decode(body, &tm) != nil || tm.V <= 0 || tm.V0 < 0 || tm.V > n-tm.V0 {
			if rep.Err == "" || len(rep.Scores) != 0 || strings.Contains(rep.Err, "panic") {
				t.Fatalf("task %+v: report has Err %q and %d scores, want a refusal (not a contained panic) and none", tm, rep.Err, len(rep.Scores))
			}
			return
		}
		if rep.Err != "" || len(rep.Scores) != tm.V {
			t.Fatalf("task %+v: report has Err %q and %d scores, want %d scores", tm, rep.Err, len(rep.Scores), tm.V)
		}
		for _, s := range rep.Scores {
			if s.Voxel < tm.V0 || s.Voxel >= tm.V0+tm.V {
				t.Fatalf("task %+v: scored voxel %d", tm, s.Voxel)
			}
		}
	})
}
