// Package cluster implements FCMA's master–worker parallelization (paper
// §3.1.1): the master partitions the brain's voxels into fixed-size tasks
// and hands them to workers dynamically — a worker gets a new task the
// moment it returns a result — then collects and merges all voxel scores.
//
// The layer is built to survive single-worker failure modes without human
// intervention, because a paper-scale run (96 coprocessors, 15 hours) will
// see them:
//
//   - liveness: workers heartbeat; a silent worker is marked dead and its
//     task requeued, and a task held past its deadline is speculatively
//     re-issued to an idle worker (duplicate results are deduplicated).
//   - error containment: a worker-side task failure no longer aborts the
//     run; the task is retried on a different worker within a retry
//     budget, and workers that fail repeatedly are quarantined.
//   - elastic membership: ranks may join late or rejoin after a crash
//     (the TCP transport admits connections for the lifetime of the run);
//     the master tracks whoever speaks, not a fixed census.
//
// The run aborts only on deterministic failure: a task exhausting its
// retry budget, or no live workers remaining.
//
// It also provides a deterministic discrete-event scheduler model used to
// extrapolate measured per-task costs to node counts beyond the host
// machine (Tables 3–4, Fig. 8).
package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"time"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/mpi"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
	"fcma/internal/safe"
)

// taskMsg and resultMsg are the gob payloads of the protocol.
type taskMsg struct {
	V0, V int
	// Trace and Span carry the master's task-span context so the worker
	// can parent its stage spans under it (zero when tracing is off; gob
	// tolerates both directions across protocol versions).
	Trace, Span uint64
}

// spanContext recovers the trace reference a task message carries.
func (t taskMsg) spanContext() trace.SpanContext {
	return trace.SpanContext{Trace: trace.TraceID(t.Trace), Span: trace.SpanID(t.Span)}
}

type resultMsg struct {
	Task   taskMsg
	Scores []core.VoxelScore
}

type errorMsg struct {
	Task taskMsg
	Err  string
}

func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decode(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// TaskProcessor computes voxel scores for one task. *core.Worker is the
// production implementation; tests substitute fault-injecting ones.
type TaskProcessor interface {
	Process(core.Task) ([]core.VoxelScore, error)
}

// ContextProcessor is implemented by processors that support cooperative
// cancellation (as *core.Worker does); RunWorkerCtx prefers it so a
// cancelled worker aborts its in-flight task instead of finishing it.
type ContextProcessor interface {
	ProcessContext(context.Context, core.Task) ([]core.VoxelScore, error)
}

// MasterOptions tune the master's fault tolerance. The zero value keeps
// the liveness machinery off (no heartbeat tracking, no task deadlines)
// and uses default retry budgets.
type MasterOptions struct {
	// Checkpoint, when non-nil, provides durable progress: completed tasks
	// are recorded before the next assignment and covered tasks are
	// skipped on resume.
	Checkpoint *Checkpoint
	// Journal, when non-nil, is the master's write-ahead log: assignments
	// and completions (with their merged result blocks) are recorded as
	// they happen, completions durably before the master acts on them. A
	// master restarted on a journal re-issues only in-flight tasks and
	// never recomputes a journaled-complete voxel range; the resumed
	// scores are bit-exact with an uninterrupted run.
	Journal *Journal
	// Chaos, when non-nil, injects the plan's scheduling-point delays into
	// the master loop and kills the master (RunMasterCtx returns
	// chaos.ErrKilled without any shutdown protocol) when a kill event
	// fires. Production runs leave it nil; soaks use it to prove the
	// journal recovery path.
	Chaos *chaos.Plan
	// TaskDeadline is how long a task may stay outstanding on one worker
	// before a speculative copy is issued to an idle worker. Zero disables
	// speculation.
	TaskDeadline time.Duration
	// HeartbeatTimeout is how long a worker may stay silent before it is
	// presumed dead and its task requeued. Zero disables liveness
	// tracking. Set it to a few multiples of the workers' heartbeat
	// interval.
	HeartbeatTimeout time.Duration
	// TaskRetries is how many worker-reported failures one task tolerates
	// before the run aborts (a task that fails everywhere is a
	// deterministic failure). Defaults to 3.
	TaskRetries int
	// WorkerErrorLimit is how many failures one worker may report before
	// it is quarantined (sent TagStop and excluded from assignment).
	// Defaults to 3.
	WorkerErrorLimit int
	// Obs receives the master's task-lifecycle counters (tasks issued,
	// completed, retried, speculated; voxels scored and dedup-dropped;
	// workers quarantined and presumed dead). Nil records to the
	// process-wide obs.Default() registry.
	Obs *obs.Registry
	// Metrics, when non-nil, collects the per-rank registry snapshots
	// workers ship on mpi.TagMetrics, so the caller can report per-worker
	// and merged cluster-wide metrics after the run.
	Metrics *ClusterMetrics
	// Trace, when non-nil, records the master's side of the distributed
	// timeline: one span per task assignment (ended when the result, error,
	// or death of the assignee retires it), all under one run-level span
	// whose context is shipped inside every task message.
	Trace *trace.Tracer
	// Spans, when non-nil, collects the completed span buffers workers ship
	// on mpi.TagSpans; together with Trace's own drain it yields the merged
	// cluster-wide trace.
	Spans *ClusterTrace
}

// RunMaster drives the task queue over the transport: voxels [0, totalVoxels)
// are split into tasks of taskSize voxels, distributed dynamically, and the
// merged scores (sorted by voxel) are returned once every voxel is scored.
// Workers receive TagStop when the analysis completes or aborts.
func RunMaster(tr mpi.Transport, totalVoxels, taskSize int) ([]core.VoxelScore, error) {
	return RunMasterOpts(tr, totalVoxels, taskSize, MasterOptions{})
}

// worker lifecycle states as the master tracks them.
const (
	wsIdle        = iota // announced itself, no task in hand
	wsWorking            // has an outstanding task
	wsDead               // disconnected or heartbeat-silent; resurrects if it speaks again
	wsQuarantined        // failed too many tasks; stopped and excluded
)

type workerInfo struct {
	state     int
	task      taskMsg       // outstanding task when wsWorking
	span      *trace.Active // the task's master-side span when wsWorking
	since     time.Time     // when task was assigned or last speculated
	lastHeard time.Time     // last message of any kind
	errors    int           // task failures reported by this worker
}

type master struct {
	tr          mpi.Transport
	totalVoxels int
	opts        MasterOptions
	reg         *obs.Registry
	runSpan     *trace.Active // run-level span every task span nests under

	queue     []taskMsg
	workers   map[int]*workerInfo
	scores    []core.VoxelScore
	seen      map[int]bool
	taskFails map[int]int          // task V0 -> failures so far
	taskAvoid map[int]map[int]bool // task V0 -> ranks that failed it
}

// RunMasterOpts is RunMaster with explicit fault-tolerance options.
func RunMasterOpts(tr mpi.Transport, totalVoxels, taskSize int, opts MasterOptions) ([]core.VoxelScore, error) {
	return RunMasterCtx(context.Background(), tr, totalVoxels, taskSize, opts)
}

// RunMasterCtx is RunMasterOpts with cooperative cancellation: when ctx is
// cancelled the master broadcasts TagStop to every known rank (so workers
// shut down instead of blocking on their next task), records any
// checkpoint state already flushed, and returns ctx.Err().
func RunMasterCtx(ctx context.Context, tr mpi.Transport, totalVoxels, taskSize int, opts MasterOptions) ([]core.VoxelScore, error) {
	if totalVoxels <= 0 || taskSize <= 0 {
		return nil, fmt.Errorf("cluster: invalid partition %d voxels / %d per task", totalVoxels, taskSize)
	}
	if tr.Size() < 2 {
		return nil, fmt.Errorf("cluster: no workers in communicator of size %d", tr.Size())
	}
	if opts.TaskRetries <= 0 {
		opts.TaskRetries = 3
	}
	if opts.WorkerErrorLimit <= 0 {
		opts.WorkerErrorLimit = 3
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	m := &master{
		tr:          tr,
		totalVoxels: totalVoxels,
		opts:        opts,
		reg:         reg,
		workers:     make(map[int]*workerInfo),
		scores:      make([]core.VoxelScore, 0, totalVoxels),
		seen:        make(map[int]bool, totalVoxels),
		taskFails:   make(map[int]int),
		taskAvoid:   make(map[int]map[int]bool),
	}
	cp := opts.Checkpoint
	jn := opts.Journal
	if jn != nil {
		jn.attach(reg)
	}
	for v0 := 0; v0 < totalVoxels; v0 += taskSize {
		v := taskSize
		if v0+v > totalVoxels {
			v = totalVoxels - v0
		}
		if cp != nil && taskCovered(cp, v0, v) {
			continue
		}
		if jn != nil && taskJournaled(jn, v0, v) {
			// Journaled-complete ranges are never re-issued: the counter is
			// what the recovery tests assert zero recomputation against.
			reg.Counter("cluster_tasks_skipped_journaled_total").Inc()
			continue
		}
		m.queue = append(m.queue, taskMsg{V0: v0, V: v})
	}
	if cp != nil {
		m.addScores(cp.scores())
	}
	if jn != nil {
		m.addScores(jn.Scores())
	}
	return m.run(ctx)
}

func (m *master) run(ctx context.Context) ([]core.VoxelScore, error) {
	m.runSpan = m.opts.Trace.StartRoot("cluster/run")
	m.runSpan.SetInt("voxels", m.totalVoxels)
	m.runSpan.SetInt("tasks", len(m.queue))
	defer func() {
		m.endTaskSpans("run-ended")
		m.runSpan.End()
	}()
	// A dedicated receive pump lets the master loop also react to time
	// (task deadlines, heartbeat timeouts) instead of blocking in Recv.
	msgs := make(chan mpi.Message)
	recvErr := make(chan error, 1)
	quit := make(chan struct{})
	defer close(quit)
	safe.Go("cluster/recv-pump", func() error {
		for {
			msg, err := m.tr.Recv()
			if err != nil {
				select {
				case recvErr <- err:
				case <-quit:
				}
				return nil
			}
			select {
			case msgs <- msg:
			case <-quit:
				return nil
			}
		}
	}, func(err error) {
		// A panic in the pump surfaces like a transport failure so the
		// master loop unblocks instead of waiting forever.
		if err != nil {
			select {
			case recvErr <- err:
			case <-quit:
			}
		}
	})

	var tick <-chan time.Time
	if g := m.tickGranularity(); g > 0 {
		t := time.NewTicker(g)
		defer t.Stop()
		tick = t.C
	}

	for !m.complete() {
		var err error
		select {
		case <-ctx.Done():
			m.broadcastStop()
			return nil, ctx.Err()
		case rerr := <-recvErr:
			return nil, fmt.Errorf("cluster: master recv: %w", rerr)
		case now := <-tick:
			err = m.onTick(now)
		case msg := <-msgs:
			err = m.handle(msg)
		}
		if errors.Is(err, chaos.ErrKilled) {
			// A chaos kill is a simulated crash: no stop broadcast, no
			// graceful teardown — workers must discover the death through
			// the transport, exactly as with a real master crash.
			return nil, err
		}
		if err != nil {
			m.broadcastStop()
			return nil, err
		}
	}
	m.broadcastStop()
	sort.Slice(m.scores, func(i, j int) bool { return m.scores[i].Voxel < m.scores[j].Voxel })
	if len(m.scores) != m.totalVoxels {
		return nil, fmt.Errorf("cluster: collected %d of %d voxel scores", len(m.scores), m.totalVoxels)
	}
	return m.scores, nil
}

// tickGranularity picks the timer period from the enabled timeouts.
func (m *master) tickGranularity() time.Duration {
	g := time.Duration(0)
	for _, d := range []time.Duration{m.opts.TaskDeadline, m.opts.HeartbeatTimeout} {
		if d > 0 && (g == 0 || d < g) {
			g = d
		}
	}
	if g == 0 {
		return 0
	}
	if g /= 4; g < 5*time.Millisecond {
		g = 5 * time.Millisecond
	}
	if g > time.Second {
		g = time.Second
	}
	return g
}

func (m *master) complete() bool { return len(m.seen) >= m.totalVoxels }

func (m *master) addScores(fresh []core.VoxelScore) {
	var added, dropped uint64
	for _, s := range fresh {
		if s.Voxel >= 0 && s.Voxel < m.totalVoxels && !m.seen[s.Voxel] {
			m.seen[s.Voxel] = true
			m.scores = append(m.scores, s)
			added++
		} else {
			dropped++
		}
	}
	m.reg.Counter("cluster_voxels_scored_total").Add(added)
	// Dropped voxels are duplicates from speculation/retry (or out of
	// range); counting them makes dedup activity visible.
	m.reg.Counter("cluster_dedup_dropped_voxels_total").Add(dropped)
}

// covered reports whether every voxel of the task has already been scored.
func (m *master) covered(t taskMsg) bool {
	for v := t.V0; v < t.V0+t.V; v++ {
		if !m.seen[v] {
			return false
		}
	}
	return true
}

func (m *master) live() int {
	n := 0
	for _, w := range m.workers {
		if w.state == wsIdle || w.state == wsWorking {
			n++
		}
	}
	return n
}

// checkLive aborts the run once every worker of the expected census has
// been heard from and all of them are dead or quarantined while work
// remains: nobody else is guaranteed to show up. While fewer ranks have
// spoken than the communicator expects, the master keeps waiting for the
// stragglers to join.
func (m *master) checkLive() error {
	if len(m.workers) >= m.tr.Size()-1 && m.live() == 0 && !m.complete() {
		return fmt.Errorf("cluster: no live workers remain with %d of %d voxels unscored",
			m.totalVoxels-len(m.seen), m.totalVoxels)
	}
	return nil
}

// touch registers rank as alive now. A presumed-dead worker that speaks is
// resurrected; quarantine is permanent.
func (m *master) touch(rank int, now time.Time) *workerInfo {
	w := m.workers[rank]
	if w == nil {
		w = &workerInfo{state: wsIdle}
		m.workers[rank] = w
	}
	if w.state == wsDead {
		w.state = wsIdle
		w.task = taskMsg{}
	}
	w.lastHeard = now
	return w
}

func (m *master) handle(msg mpi.Message) error {
	now := time.Now()
	if msg.Tag == mpi.TagDisconnect {
		// No touch: a disconnect must not resurrect the rank.
		m.markDead(msg.From)
		return m.checkLive()
	}
	w := m.touch(msg.From, now)
	switch msg.Tag {
	case mpi.TagHeartbeat:
		return nil
	case mpi.TagReady:
		switch w.state {
		case wsQuarantined:
			_ = m.tr.Send(msg.From, mpi.TagStop, nil) // stay stopped
		case wsIdle:
			m.assign(msg.From, now)
		}
		return nil
	case mpi.TagMetrics:
		var snap obs.Snapshot
		if err := decode(msg.Body, &snap); err == nil {
			m.opts.Metrics.record(msg.From, snap)
		}
		return nil
	case mpi.TagSpans:
		var spans []trace.Span
		if err := decode(msg.Body, &spans); err == nil {
			m.opts.Spans.record(spans)
		}
		return nil
	case mpi.TagResult:
		var res resultMsg
		if err := decode(msg.Body, &res); err != nil {
			// A corrupt result is contained like any worker failure.
			return m.recordWorkerError(msg.From, w.task, fmt.Sprintf("undecodable result: %v", err), now)
		}
		m.reg.Counter("cluster_tasks_completed_total").Inc()
		m.opts.Chaos.Point("master/result")
		// Durability before action: the completion must be on disk before
		// the master acknowledges it by assigning this worker new work —
		// a crash after this line never recomputes the range.
		if jn := m.opts.Journal; jn != nil {
			if err := jn.RecordComplete(res.Task.V0, res.Task.V, res.Scores); err != nil {
				return fmt.Errorf("cluster: journaling completion: %w", err)
			}
		}
		if cp := m.opts.Checkpoint; cp != nil {
			if err := cp.record(res.Scores); err != nil {
				return fmt.Errorf("cluster: recording checkpoint: %w", err)
			}
		}
		m.addScores(res.Scores)
		if m.opts.Chaos.TaskDone() {
			return chaos.ErrKilled
		}
		if w.state == wsWorking {
			m.endTaskSpan(w, "ok")
			w.state = wsIdle
			w.task = taskMsg{}
		}
		if w.state == wsIdle {
			m.assign(msg.From, now)
		}
		return nil
	case mpi.TagError:
		var em errorMsg
		if err := decode(msg.Body, &em); err != nil {
			return m.recordWorkerError(msg.From, w.task, fmt.Sprintf("undecodable error report: %v", err), now)
		}
		return m.recordWorkerError(msg.From, em.Task, em.Err, now)
	default:
		return fmt.Errorf("cluster: master got unexpected %v from rank %d", msg.Tag, msg.From)
	}
}

// onTick runs the time-based recovery paths: heartbeat liveness, task
// deadlines, and draining the queue to any idle workers.
func (m *master) onTick(now time.Time) error {
	m.opts.Chaos.Point("master/tick")
	if hb := m.opts.HeartbeatTimeout; hb > 0 {
		for rank, w := range m.workers {
			if (w.state == wsIdle || w.state == wsWorking) && now.Sub(w.lastHeard) > hb {
				m.markDead(rank)
			}
		}
	}
	if dl := m.opts.TaskDeadline; dl > 0 {
		for rank, w := range m.workers {
			if w.state == wsWorking && now.Sub(w.since) > dl {
				m.speculate(rank, w, now)
			}
		}
	}
	m.assignIdle(now)
	return m.checkLive()
}

// speculate re-issues a slow rank's task to an idle worker; the existing
// voxel-level dedup makes the duplicate result harmless, and whichever copy
// finishes first wins.
func (m *master) speculate(slow int, w *workerInfo, now time.Time) {
	if m.covered(w.task) {
		return
	}
	for rank, cand := range m.workers {
		if rank == slow || cand.state != wsIdle || m.taskAvoid[w.task.V0][rank] {
			continue
		}
		if m.sendTask(rank, cand, w.task, now) {
			m.reg.Counter("cluster_tasks_speculated_total").Inc()
			w.since = now // back off before speculating the same task again
			return
		}
	}
	// No idle candidate. A lost result wedges its rank — the master sees
	// wsWorking forever while the worker waits for a task that will never
	// come — and enough lost results wedge the whole pool with no idle
	// worker left to speculate onto. Re-issue the task to its own rank: for
	// a merely slow worker it is a harmless duplicate whose result dedups,
	// for a wedged one it is the renewal that unsticks the run.
	if m.taskAvoid[w.task.V0][slow] {
		return
	}
	old := w.span
	if m.sendTask(slow, w, w.task, now) {
		if old != nil {
			old.SetAttr("outcome", "renewed")
			old.End()
		}
		m.reg.Counter("cluster_tasks_renewed_total").Inc()
	}
}

// markDead requeues the rank's outstanding task and excludes it from
// assignment until it speaks again (TCP rejoin arrives as a fresh rank).
func (m *master) markDead(rank int) {
	w := m.workers[rank]
	if w == nil {
		w = &workerInfo{}
		m.workers[rank] = w
	}
	if w.state == wsDead || w.state == wsQuarantined {
		w.state = wsDead
		return
	}
	if w.state == wsWorking {
		m.endTaskSpan(w, "worker-dead")
		m.requeue(w.task)
	}
	w.state = wsDead
	w.task = taskMsg{}
	m.reg.Counter("cluster_workers_dead_total").Inc()
	m.assignIdle(time.Now())
}

// requeue puts a task back at the head of the queue unless it is already
// queued or its voxels have since been scored.
func (m *master) requeue(t taskMsg) {
	if t.V <= 0 || m.covered(t) {
		return
	}
	for _, q := range m.queue {
		if q.V0 == t.V0 {
			return
		}
	}
	m.queue = append([]taskMsg{t}, m.queue...)
}

// recordWorkerError books a task failure: the task is retried elsewhere
// within its budget, and the worker is quarantined after repeated failures.
// Only an exhausted task budget aborts the run.
func (m *master) recordWorkerError(rank int, task taskMsg, detail string, now time.Time) error {
	w := m.workers[rank]
	w.errors++
	if w.state == wsWorking {
		m.endTaskSpan(w, "error")
		w.state = wsIdle
		w.task = taskMsg{}
	}
	if task.V > 0 && !m.covered(task) {
		m.taskFails[task.V0]++
		if m.taskAvoid[task.V0] == nil {
			m.taskAvoid[task.V0] = make(map[int]bool)
		}
		m.taskAvoid[task.V0][rank] = true
		if m.taskFails[task.V0] > m.opts.TaskRetries {
			// A task failing everywhere is the run's deterministic abort
			// path: preserve the lead-up in the black box before unwinding.
			trace.DefaultFlight().Note("abort", fmt.Sprintf(
				"task voxels [%d,%d) exhausted retry budget %d, last on rank %d: %s",
				task.V0, task.V0+task.V, m.opts.TaskRetries, rank, detail))
			trace.DumpNow(fmt.Sprintf("task [%d,%d) exhausted retry budget", task.V0, task.V0+task.V))
			return fmt.Errorf("cluster: task voxels [%d,%d) failed %d times (budget %d), last on rank %d: %s",
				task.V0, task.V0+task.V, m.taskFails[task.V0], m.opts.TaskRetries, rank, detail)
		}
		m.reg.Counter("cluster_tasks_retried_total").Inc()
		m.requeue(task)
	}
	if w.errors >= m.opts.WorkerErrorLimit {
		m.quarantine(rank)
	} else if w.state == wsIdle {
		m.assign(rank, now)
	}
	m.assignIdle(now)
	return m.checkLive()
}

// quarantine stops a repeatedly failing worker and excludes it for the
// rest of the run.
func (m *master) quarantine(rank int) {
	w := m.workers[rank]
	if w.state == wsWorking {
		m.endTaskSpan(w, "quarantined")
		m.requeue(w.task)
	}
	w.state = wsQuarantined
	w.task = taskMsg{}
	m.reg.Counter("cluster_workers_quarantined_total").Inc()
	_ = m.tr.Send(rank, mpi.TagStop, nil)
}

// otherEligible reports whether some live worker other than rank has not
// yet failed the task at v0.
func (m *master) otherEligible(v0, rank int) bool {
	for r, w := range m.workers {
		if r != rank && (w.state == wsIdle || w.state == wsWorking) && !m.taskAvoid[v0][r] {
			return true
		}
	}
	return false
}

// assign hands rank the first queued task it is eligible for. Tasks whose
// voxels are already scored are discarded; a task a worker has failed is
// only given back to it when no other live worker could take it instead
// (the retry budget still bounds how often that can happen).
func (m *master) assign(rank int, now time.Time) {
	w := m.workers[rank]
	for i := 0; i < len(m.queue); i++ {
		t := m.queue[i]
		if m.covered(t) {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			i--
			continue
		}
		if m.taskAvoid[t.V0][rank] && m.otherEligible(t.V0, rank) {
			continue
		}
		m.queue = append(m.queue[:i], m.queue[i+1:]...)
		if !m.sendTask(rank, w, t, now) {
			// The worker vanished between messages; keep the task and let
			// the disconnect notice retire the rank.
			m.requeue(t)
		}
		return
	}
	// Nothing eligible: stay idle. Idle workers are the targets for
	// speculative re-issues and retries, so they are not stopped until the
	// run completes.
}

// sendTask ships t to rank and books it as outstanding there. Each
// assignment (first issue, retry, speculative copy) gets its own span, so
// the merged timeline shows exactly which rank held the task when.
func (m *master) sendTask(rank int, w *workerInfo, t taskMsg, now time.Time) bool {
	span := m.opts.Trace.StartChild("cluster/task", m.runSpan.Context())
	span.SetInt("rank", rank)
	span.SetInt("v0", t.V0)
	span.SetInt("voxels", t.V)
	if sc := span.Context(); sc.Valid() {
		t.Trace, t.Span = uint64(sc.Trace), uint64(sc.Span)
	}
	body, err := encode(t)
	if err != nil {
		// Encoding a trivial struct cannot fail at runtime; treat it as a
		// dead send for uniformity.
		return false
	}
	m.opts.Chaos.Point("master/assign")
	if err := m.tr.Send(rank, mpi.TagTask, body); err != nil {
		span.SetAttr("outcome", "send-failed")
		span.End()
		return false
	}
	if jn := m.opts.Journal; jn != nil {
		// Assignments are advisory (a lost one is just re-issued on
		// resume), so an append failure is survivable and unsynced.
		if err := jn.RecordAssign(t.V0, t.V, rank); err != nil {
			m.reg.Counter("cluster_journal_errors_total").Inc()
		}
	}
	m.reg.Counter("cluster_tasks_issued_total").Inc()
	w.state = wsWorking
	w.task = t
	w.span = span
	w.since = now
	return true
}

// endTaskSpan retires the master-side span of w's outstanding task.
func (m *master) endTaskSpan(w *workerInfo, outcome string) {
	if w.span == nil {
		return
	}
	w.span.SetAttr("outcome", outcome)
	w.span.End()
	w.span = nil
}

// endTaskSpans retires every outstanding task span (run teardown).
func (m *master) endTaskSpans(outcome string) {
	for _, w := range m.workers {
		if w.state == wsWorking {
			m.endTaskSpan(w, outcome)
		}
	}
}

// assignIdle drains the queue to every idle worker (used after requeues and
// on ticks, so a dropped Ready cannot strand queued work).
func (m *master) assignIdle(now time.Time) {
	for rank, w := range m.workers {
		if len(m.queue) == 0 {
			return
		}
		if w.state == wsIdle {
			m.assign(rank, now)
		}
	}
}

// broadcastStop tells every rank the master knows about to shut down,
// best-effort.
func (m *master) broadcastStop() {
	stopped := make(map[int]bool)
	for rank, w := range m.workers {
		if w.state != wsDead {
			_ = m.tr.Send(rank, mpi.TagStop, nil)
		}
		stopped[rank] = true
	}
	// Also cover ranks admitted by the transport that never spoke.
	for rank := 1; rank < m.tr.Size(); rank++ {
		if !stopped[rank] {
			_ = m.tr.Send(rank, mpi.TagStop, nil)
		}
	}
}

// WorkerOptions tune a worker's protocol behaviour.
type WorkerOptions struct {
	// HeartbeatInterval between liveness beacons to the master. Zero
	// selects 1s; negative disables heartbeats.
	HeartbeatInterval time.Duration
	// Obs is the registry whose snapshot is shipped to the master on
	// mpi.TagMetrics after every result or error; the worker's own task
	// counters (worker_tasks_total, worker_task_failures_total,
	// worker_task_seconds) record there too. Nil uses obs.Default(), which
	// is right when the worker owns the process (cmd/fcma-cluster); give
	// in-process workers distinct registries so their metrics stay apart.
	Obs *obs.Registry
	// Trace, when non-nil, records this worker's side of the distributed
	// timeline: a "worker/task" span per assignment, parented under the
	// master's task span shipped inside the message, with every pipeline
	// stage span nested inside. Completed buffers are drained and shipped
	// to the master on mpi.TagSpans after each task, best-effort.
	Trace *trace.Tracer
}

// RunWorker serves tasks until TagStop: announce readiness, process each
// assignment, return results, and heartbeat in the background. A
// task-processing error is reported to the master and the worker stays in
// service — the master decides whether to retry elsewhere or quarantine
// this worker (which arrives as TagStop).
func RunWorker(tr mpi.Transport, proc TaskProcessor) error {
	return RunWorkerOpts(tr, proc, WorkerOptions{})
}

// RunWorkerOpts is RunWorker with explicit options.
func RunWorkerOpts(tr mpi.Transport, proc TaskProcessor, opts WorkerOptions) error {
	return RunWorkerCtx(context.Background(), tr, proc, opts)
}

// RunWorkerCtx is RunWorkerOpts with cooperative cancellation and panic
// containment. A cancelled ctx aborts the in-flight task (when the
// processor supports contexts) and returns ctx.Err() instead of waiting
// for TagStop; a panicking processor is reported to the master as a
// TagError (a *safe.PipelineError message) and the worker stays in
// service, so one poisoned task cannot crash the rank — the master's
// retry/quarantine machinery decides its fate.
//
// When ctx is cancellable the receive loop runs through a pump goroutine;
// after cancellation that goroutine may stay blocked in Recv until the
// caller closes the transport, which cmd/fcma-cluster and the in-process
// harness both do on shutdown.
func RunWorkerCtx(ctx context.Context, tr mpi.Transport, proc TaskProcessor, opts WorkerOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	tasksTotal := reg.Counter("worker_tasks_total")
	taskFails := reg.Counter("worker_task_failures_total")
	taskSeconds := reg.Histogram("worker_task_seconds", obs.DefaultLatencyBuckets)
	// Spans record under this rank's pid lane; the rank is only known from
	// the transport (and changes across a TCP rejoin).
	opts.Trace.SetPID(tr.Rank())
	// shipSpans drains the completed span buffer to the master,
	// best-effort: tracing must never take a healthy worker down.
	shipSpans := func() {
		spans := opts.Trace.Drain()
		if len(spans) == 0 {
			return
		}
		if body, err := encode(spans); err == nil {
			_ = tr.Send(0, mpi.TagSpans, body)
		}
	}
	// shipMetrics sends the registry's current snapshot to the master,
	// best-effort: metrics must never take a healthy worker down.
	shipMetrics := func() {
		snap := reg.Snapshot()
		if body, err := encode(snap); err == nil {
			_ = tr.Send(0, mpi.TagMetrics, body)
		}
	}
	if err := tr.Send(0, mpi.TagReady, nil); err != nil {
		return fmt.Errorf("cluster: worker ready: %w", err)
	}
	hb := opts.HeartbeatInterval
	if hb == 0 {
		hb = time.Second
	}
	if hb > 0 {
		stop := make(chan struct{})
		defer close(stop)
		safe.Go("cluster/heartbeat", func() error {
			t := time.NewTicker(hb)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return nil
				case <-t.C:
					if err := tr.Send(0, mpi.TagHeartbeat, nil); err != nil {
						return nil
					}
				}
			}
		}, nil)
	}
	recv := func() (mpi.Message, error) { return tr.Recv() }
	if ctx.Done() != nil {
		type recvResult struct {
			msg mpi.Message
			err error
		}
		pump := make(chan recvResult)
		safe.Go("cluster/worker-recv", func() error {
			for {
				msg, err := tr.Recv()
				select {
				case pump <- recvResult{msg, err}:
				case <-ctx.Done():
					return nil
				}
				if err != nil {
					return nil
				}
			}
		}, nil)
		recv = func() (mpi.Message, error) {
			select {
			case r := <-pump:
				return r.msg, r.err
			case <-ctx.Done():
				return mpi.Message{}, ctx.Err()
			}
		}
	}
	for {
		msg, err := recv()
		if err != nil {
			if err == ctx.Err() && ctx.Err() != nil {
				return err
			}
			return fmt.Errorf("cluster: worker recv: %w", err)
		}
		switch msg.Tag {
		case mpi.TagStop:
			return nil
		case mpi.TagHeartbeat:
			continue // masters don't heartbeat today; tolerate it anyway
		case mpi.TagTask:
			var tm taskMsg
			if err := decode(msg.Body, &tm); err != nil {
				body, eerr := encode(errorMsg{Task: tm, Err: fmt.Sprintf("undecodable task: %v", err)})
				if eerr != nil {
					return eerr
				}
				if err := tr.Send(0, mpi.TagError, body); err != nil {
					return err
				}
				continue
			}
			var scores []core.VoxelScore
			tasksTotal.Inc()
			tt := taskSeconds.Start()
			// Parent this task's spans under the master's task span carried
			// in the message; all no-ops when tracing is off.
			tctx := trace.WithRemoteParent(ctx, opts.Trace, tm.spanContext())
			tctx, tspan := trace.StartSpan(tctx, "worker/task")
			tspan.SetInt("v0", tm.V0)
			tspan.SetInt("voxels", tm.V)
			perr := safe.Do("cluster/worker", tm.V0, tm.V, func() error {
				var err error
				if cp, ok := proc.(ContextProcessor); ok {
					scores, err = cp.ProcessContext(tctx, core.Task{V0: tm.V0, V: tm.V})
				} else {
					scores, err = proc.Process(core.Task{V0: tm.V0, V: tm.V})
				}
				return err
			})
			if perr != nil {
				tspan.SetAttr("outcome", "error")
			}
			tspan.End()
			tt.Stop()
			if perr != nil && ctx.Err() != nil && errors.Is(perr, ctx.Err()) {
				return ctx.Err() // cancelled mid-task: shut down, don't report
			}
			if perr != nil {
				taskFails.Inc()
				body, err := encode(errorMsg{Task: tm, Err: perr.Error()})
				if err != nil {
					return err
				}
				// Ship the snapshot before the error so the master's view
				// already covers this task when it books the failure (both
				// transports deliver per-sender in order).
				shipSpans()
				shipMetrics()
				if err := tr.Send(0, mpi.TagError, body); err != nil {
					return err
				}
				continue // stay in service; the master owns retry policy
			}
			body, err := encode(resultMsg{Task: tm, Scores: scores})
			if err != nil {
				return err
			}
			// Snapshot-then-result ordering: when the final result completes
			// the run, every rank's last snapshot (and span buffer) has
			// already been handled.
			shipSpans()
			shipMetrics()
			if err := tr.Send(0, mpi.TagResult, body); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cluster: worker got unexpected %v", msg.Tag)
		}
	}
}

// taskCovered reports whether every voxel of the task is already in the
// checkpoint.
func taskCovered(cp *Checkpoint, v0, v int) bool {
	for i := v0; i < v0+v; i++ {
		if !cp.Has(i) {
			return false
		}
	}
	return true
}

// taskJournaled reports whether every voxel of the task is recorded
// complete in the journal.
func taskJournaled(jn *Journal, v0, v int) bool {
	for i := v0; i < v0+v; i++ {
		if !jn.Has(i) {
			return false
		}
	}
	return true
}
