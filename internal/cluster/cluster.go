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
//   - an expendable master: with a Journal every completion is durable
//     before it is acted on, and a restarted master recomputes nothing the
//     journal holds.
//
// The run aborts only on deterministic failure: a task exhausting its
// retry budget, or no live workers remaining.
package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/mpi"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
	"fcma/internal/safe"
)

// taskMsg and report are the gob payloads of the protocol.
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

// report is a worker's one answer to a task: its scores, or the failure
// in Err, with the worker's registry snapshot and the spans it completed
// since its last report.
type report struct {
	Task    taskMsg
	Scores  []core.VoxelScore
	Err     string
	Metrics obs.Snapshot
	Spans   []trace.Span
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

// TaskProcessor computes voxel scores for one task, stopping early when
// ctx is cancelled. *core.Worker is the production implementation; tests
// substitute fault-injecting ones.
type TaskProcessor interface {
	ProcessContext(context.Context, core.Task) ([]core.VoxelScore, error)
}

// MasterOptions tune the master's fault tolerance. The zero value keeps
// the liveness machinery off (no heartbeat tracking, no task deadlines)
// and uses default retry budgets.
type MasterOptions struct {
	// Journal, when non-nil, is the master's write-ahead log and its only
	// durable progress: assignments and completions (with their merged
	// result blocks) are recorded as they happen, completions durably
	// before the master acts on them. A master restarted on a journal
	// re-issues only in-flight tasks and never recomputes a
	// journaled-complete voxel range; the resumed scores are bit-exact with
	// an uninterrupted run.
	Journal *Journal
	// Chaos, when non-nil, injects the plan's scheduling-point delays into
	// the master loop and kills the master (RunMasterCtx returns
	// chaos.ErrKilled without any shutdown protocol) when a kill event
	// fires. Production runs leave it nil; soaks use it to prove the
	// journal recovery path.
	Chaos *chaos.Plan
	// TaskDeadline is how long a task may stay outstanding before a
	// speculative copy is issued to an idle worker (or, with none idle,
	// re-sent to the rank that holds it). Zero disables speculation.
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
	// Metrics, when non-nil, collects the registry snapshots workers ship
	// in their reports, so the caller can report per-worker and merged
	// cluster-wide metrics after the run.
	Metrics *ClusterMetrics
	// Trace, when non-nil, records the master's side of the distributed
	// timeline: one span per task assignment (ended when the result, error,
	// or death of the assignee retires it), all under one run-level span
	// whose context is shipped inside every task message. The spans workers
	// ship in their reports are absorbed into it, so its Drain is the
	// cluster-wide trace.
	Trace *trace.Tracer
}

// task is everything the master knows about one voxel range. The table of
// them (master.tasks, indexed by v0/taskSize) is the scheduler's only
// state: what is done, what may be issued and which rank is busy are all
// read from it, so a message can only ever change the row it is about.
type task struct {
	v0, v   int
	missing int          // voxels of the range not yet scored; 0 means done
	fails   int          // worker-reported failures so far
	avoid   map[int]bool // ranks that failed it
	holders []holder     // ranks that were sent a copy and have not answered or died
}

// holder is one outstanding copy of a task.
type holder struct {
	rank  int
	since time.Time     // when the copy was sent
	span  *trace.Active // the copy's master-side span
}

// end closes the copy's span with its outcome.
func (h holder) end(outcome string) {
	h.span.SetAttr("outcome", outcome)
	h.span.End()
}

// release retires rank's copy of t, if it holds one.
func (t *task) release(rank int, outcome string) bool {
	for i, h := range t.holders {
		if h.rank == rank {
			h.end(outcome)
			t.holders = append(t.holders[:i], t.holders[i+1:]...)
			return true
		}
	}
	return false
}

// worker lifecycle states as the master tracks them. Whether a live rank
// is busy is not a state: it is busy while some task lists it as a holder.
const (
	wsLive        = iota // has spoken and may be given work
	wsDead               // disconnected or heartbeat-silent; resurrects if it speaks again
	wsQuarantined        // failed too many tasks; stopped and excluded
)

type workerInfo struct {
	state     int
	lastHeard time.Time // last message of any kind
	errors    int       // task failures reported by this worker
}

type master struct {
	tr       mpi.Transport
	taskSize int
	opts     MasterOptions
	reg      *obs.Registry
	runSpan  *trace.Active // run-level span every task span nests under

	tasks    []task            // indexed by v0/taskSize
	scores   []core.VoxelScore // indexed by voxel; valid where have is set
	have     []bool
	unscored int
	workers  map[int]*workerInfo
}

// RunMasterCtx drives the task table over the transport: voxels
// [0, totalVoxels) are split into tasks of taskSize voxels, distributed
// dynamically, and the merged scores (sorted by voxel) are returned once
// every voxel is scored. Workers receive TagStop when the analysis
// completes or aborts. When ctx is cancelled the master broadcasts TagStop
// to every known rank (so workers shut down instead of blocking on their
// next task) and returns ctx.Err(); whatever the journal already holds
// stays resumable.
func RunMasterCtx(ctx context.Context, tr mpi.Transport, totalVoxels, taskSize int, opts MasterOptions) ([]core.VoxelScore, error) {
	m, err := newMaster(tr, totalVoxels, taskSize, opts)
	if err != nil {
		return nil, err
	}
	return m.run(ctx)
}

// newMaster builds the task table, with whatever the journal holds booked.
func newMaster(tr mpi.Transport, totalVoxels, taskSize int, opts MasterOptions) (*master, error) {
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
		tr:       tr,
		taskSize: taskSize,
		opts:     opts,
		reg:      reg,
		scores:   make([]core.VoxelScore, totalVoxels),
		have:     make([]bool, totalVoxels),
		unscored: totalVoxels,
		workers:  make(map[int]*workerInfo),
	}
	for v0 := 0; v0 < totalVoxels; v0 += taskSize {
		v := min(taskSize, totalVoxels-v0)
		m.tasks = append(m.tasks, task{v0: v0, v: v, missing: v})
	}
	if jn := opts.Journal; jn != nil {
		jn.attach(reg)
		m.addScores(jn.Scores(), 0, totalVoxels)
		for i := range m.tasks {
			if m.tasks[i].missing == 0 {
				// Journaled-complete ranges are never re-issued: the counter is
				// what the recovery tests assert zero recomputation against.
				reg.Counter("cluster_tasks_skipped_journaled_total").Inc()
			}
		}
	}
	return m, nil
}

func (m *master) run(ctx context.Context) ([]core.VoxelScore, error) {
	m.runSpan = m.opts.Trace.StartRoot("cluster/run")
	m.runSpan.SetInt("voxels", len(m.scores))
	m.runSpan.SetInt("tasks", m.open())
	defer func() {
		for i := range m.tasks {
			for _, h := range m.tasks[i].holders {
				h.end("run-ended")
			}
		}
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

	for m.unscored > 0 {
		var err error
		select {
		case <-ctx.Done():
			m.broadcastStop()
			return nil, ctx.Err()
		case rerr := <-recvErr:
			return nil, fmt.Errorf("cluster: master recv: %w", rerr)
		case now := <-tick:
			m.opts.Chaos.Point("master/tick")
			m.reapSilent(now)
		case msg := <-msgs:
			err = m.handle(msg)
		}
		if err == nil {
			err = m.dispatch(time.Now())
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
	return min(max(g/4, 5*time.Millisecond), time.Second)
}

// open counts the tasks still to be finished.
func (m *master) open() int {
	n := 0
	for i := range m.tasks {
		if m.tasks[i].missing > 0 {
			n++
		}
	}
	return n
}

// addScores merges the scores that fall inside [lo, hi) and are not held
// yet, and returns them. Everything else — duplicates from speculation and
// retry, voxels outside the range the sender was asked for — is dropped and
// counted, which makes dedup activity visible.
func (m *master) addScores(scores []core.VoxelScore, lo, hi int) []core.VoxelScore {
	fresh := make([]core.VoxelScore, 0, len(scores))
	for _, s := range scores {
		if s.Voxel < lo || s.Voxel >= hi || m.have[s.Voxel] {
			continue
		}
		m.have[s.Voxel] = true
		m.scores[s.Voxel] = s
		m.tasks[s.Voxel/m.taskSize].missing--
		m.unscored--
		fresh = append(fresh, s)
	}
	m.reg.Counter("cluster_voxels_scored_total").Add(uint64(len(fresh)))
	m.reg.Counter("cluster_dedup_dropped_voxels_total").Add(uint64(len(scores) - len(fresh)))
	return fresh
}

// taskAt returns the table row a wire message names, or nil when the
// message's range is not a task of this partition.
func (m *master) taskAt(tm taskMsg) *task {
	if tm.V0 < 0 || tm.V0%m.taskSize != 0 || tm.V0/m.taskSize >= len(m.tasks) {
		return nil
	}
	if t := &m.tasks[tm.V0/m.taskSize]; t.v == tm.V {
		return t
	}
	return nil
}

// heldBy returns the task rank holds a copy of, or nil when it is idle. A
// rank is only ever sent a task while it holds none (or its own again), so
// there is at most one.
func (m *master) heldBy(rank int) *task {
	for i := range m.tasks {
		for _, h := range m.tasks[i].holders {
			if h.rank == rank {
				return &m.tasks[i]
			}
		}
	}
	return nil
}

// touch registers rank as alive now. A presumed-dead worker that speaks is
// resurrected; quarantine is permanent.
func (m *master) touch(rank int, now time.Time) *workerInfo {
	w := m.workers[rank]
	if w == nil {
		w = &workerInfo{state: wsLive}
		m.workers[rank] = w
	}
	if w.state == wsDead {
		w.state = wsLive
	}
	w.lastHeard = now
	return w
}

func (m *master) handle(msg mpi.Message) error {
	if msg.Tag == mpi.TagDisconnect {
		// No touch: a disconnect must not resurrect the rank.
		m.markDead(msg.From)
		return nil
	}
	w := m.touch(msg.From, time.Now())
	switch msg.Tag {
	case mpi.TagHeartbeat:
	case mpi.TagReady:
		if w.state == wsQuarantined {
			_ = m.tr.Send(msg.From, mpi.TagStop, nil) // stay stopped
		}
	case mpi.TagResult:
		var rep report
		if err := decode(msg.Body, &rep); err != nil {
			// A corrupt report is contained like any worker failure.
			return m.taskFailed(msg.From, m.heldBy(msg.From), fmt.Sprintf("undecodable report: %v", err))
		}
		// What the worker observed is kept whatever the outcome.
		m.opts.Metrics.record(msg.From, rep.Metrics)
		m.opts.Trace.Absorb(rep.Spans)
		t := m.taskAt(rep.Task)
		if rep.Err != "" {
			if t == nil {
				// The worker could not even read its assignment.
				t = m.heldBy(msg.From)
			}
			return m.taskFailed(msg.From, t, rep.Err)
		}
		if t == nil {
			return m.taskFailed(msg.From, m.heldBy(msg.From),
				fmt.Sprintf("result for voxels [%d,%d), which is not a task of this run", rep.Task.V0, rep.Task.V0+rep.Task.V))
		}
		m.reg.Counter("cluster_tasks_completed_total").Inc()
		m.opts.Chaos.Point("master/result")
		// Durability before action: the completion must be on disk before
		// the master acknowledges it by giving this worker new work — a
		// crash after this line never recomputes the range.
		fresh := m.addScores(rep.Scores, t.v0, t.v0+t.v)
		if jn := m.opts.Journal; jn != nil && len(fresh) > 0 {
			if err := jn.RecordComplete(t.v0, t.v, fresh); err != nil {
				return fmt.Errorf("cluster: journaling completion: %w", err)
			}
		}
		if m.opts.Chaos.TaskDone() {
			return chaos.ErrKilled
		}
		if t.missing > 0 {
			return m.taskFailed(msg.From, t, fmt.Sprintf("result left %d of %d voxels unscored", t.missing, t.v))
		}
		// The result retires the sender's copy of the task it is about —
		// never whatever else the rank has been given since (a duplicated
		// or late result must not unbook a newer assignment).
		t.release(msg.From, "ok")
	default:
		return fmt.Errorf("cluster: master got unexpected %v from rank %d", msg.Tag, msg.From)
	}
	return nil
}

// reapSilent presumes dead every live rank not heard from within the
// heartbeat timeout.
func (m *master) reapSilent(now time.Time) {
	hb := m.opts.HeartbeatTimeout
	if hb <= 0 {
		return
	}
	for rank, w := range m.workers {
		if w.state == wsLive && now.Sub(w.lastHeard) > hb {
			m.markDead(rank)
		}
	}
}

// dispatch runs after every message and every tick, and is the one place
// work is handed out. It holds the scheduling invariant: every unfinished
// task is either held by a live rank inside its deadline, or is sent — as a
// first issue, a retry, or a speculative copy whose duplicate result
// dedups — to an idle rank that may take it. Because "idle" and "issuable"
// are both read from the task table, a task cannot be in neither place.
//
// The run aborts here once every worker of the expected census has been
// heard from and all of them are dead or quarantined while work remains:
// nobody else is guaranteed to show up. While fewer ranks have spoken than
// the communicator expects, the master keeps waiting for the stragglers.
func (m *master) dispatch(now time.Time) error {
	busy := make(map[int]bool)
	for i := range m.tasks {
		for _, h := range m.tasks[i].holders {
			busy[h.rank] = true
		}
	}
	var idle []int
	live := 0
	for rank, w := range m.workers {
		if w.state != wsLive {
			continue
		}
		live++
		if !busy[rank] {
			idle = append(idle, rank)
		}
	}
	for i := range m.tasks {
		t := &m.tasks[i]
		if t.missing == 0 || !m.overdue(t, now) {
			continue
		}
		if at := m.pick(idle, t); at >= 0 {
			// A failed send means the worker vanished between messages; its
			// disconnect notice retires the rank, and the task goes out on
			// the next dispatch.
			speculative := len(t.holders) > 0
			sent, err := m.sendTask(idle[at], t, now)
			if err != nil {
				return err
			}
			if sent && speculative {
				m.reg.Counter("cluster_tasks_speculated_total").Inc()
			}
			idle = append(idle[:at], idle[at+1:]...)
			continue
		}
		// No idle rank for an overdue copy. A lost result wedges its rank —
		// the master sees it busy while the worker waits for a task that
		// will never come — and enough of them leave nobody to speculate
		// onto. Re-send the task to the ranks that hold it: for a merely
		// slow worker that is a harmless duplicate whose result dedups, for
		// a wedged one it is the renewal that unsticks the run.
		for _, h := range append([]holder(nil), t.holders...) {
			if t.avoid[h.rank] {
				continue
			}
			sent, err := m.sendTask(h.rank, t, now)
			if err != nil {
				return err
			}
			if sent {
				m.reg.Counter("cluster_tasks_renewed_total").Inc()
			}
		}
	}
	if live == 0 && len(m.workers) >= m.tr.Size()-1 && m.unscored > 0 {
		return fmt.Errorf("cluster: no live workers remain with %d of %d voxels unscored", m.unscored, len(m.scores))
	}
	return nil
}

// overdue reports whether no copy of t is inside its deadline: it has no
// holder at all, or task deadlines are on and every copy has been out
// longer than one.
func (m *master) overdue(t *task, now time.Time) bool {
	for _, h := range t.holders {
		if dl := m.opts.TaskDeadline; dl <= 0 || now.Sub(h.since) <= dl {
			return false
		}
	}
	return true
}

// pick chooses which of the idle ranks gets t and returns its index, or -1
// for none. A rank that has failed t is only given it back when no other
// live worker could take it instead (the retry budget still bounds how
// often that can happen), and never as a speculative copy.
func (m *master) pick(idle []int, t *task) int {
	for i, rank := range idle {
		if !t.avoid[rank] {
			return i
		}
	}
	if len(idle) == 0 || len(t.holders) > 0 {
		return -1
	}
	for rank, w := range m.workers {
		if w.state == wsLive && !t.avoid[rank] {
			return -1 // busy now, but eligible: wait for it
		}
	}
	return 0
}

// markDead drops the rank's copies (their tasks become issuable again) and
// excludes it from assignment until it speaks again (TCP rejoin arrives as
// a fresh rank).
func (m *master) markDead(rank int) {
	w := m.workers[rank]
	if w == nil {
		m.workers[rank] = &workerInfo{state: wsDead}
		m.reg.Counter("cluster_workers_dead_total").Inc()
		return
	}
	if w.state != wsLive {
		return
	}
	w.state = wsDead
	m.releaseAll(rank, "worker-dead")
	m.reg.Counter("cluster_workers_dead_total").Inc()
}

// releaseAll retires every copy rank holds.
func (m *master) releaseAll(rank int, outcome string) {
	for i := range m.tasks {
		m.tasks[i].release(rank, outcome)
	}
}

// taskFailed books a failure reported by rank: t (when the rank held it and
// it is still unfinished) is retried elsewhere within its budget, and the
// worker is quarantined after repeated failures. Only an exhausted task
// budget aborts the run.
func (m *master) taskFailed(rank int, t *task, detail string) error {
	w := m.workers[rank]
	w.errors++
	if t != nil && t.release(rank, "error") && t.missing > 0 {
		t.fails++
		if t.avoid == nil {
			t.avoid = make(map[int]bool)
		}
		t.avoid[rank] = true
		if t.fails > m.opts.TaskRetries {
			// A task failing everywhere is the run's deterministic abort
			// path: preserve the lead-up in the black box before unwinding.
			trace.DefaultFlight().Note("abort", fmt.Sprintf(
				"task voxels [%d,%d) exhausted retry budget %d, last on rank %d: %s",
				t.v0, t.v0+t.v, m.opts.TaskRetries, rank, detail))
			trace.DumpNow(fmt.Sprintf("task [%d,%d) exhausted retry budget", t.v0, t.v0+t.v))
			return fmt.Errorf("cluster: task voxels [%d,%d) failed %d times (budget %d), last on rank %d: %s",
				t.v0, t.v0+t.v, t.fails, m.opts.TaskRetries, rank, detail)
		}
		m.reg.Counter("cluster_tasks_retried_total").Inc()
	}
	if w.errors >= m.opts.WorkerErrorLimit && w.state != wsQuarantined {
		// Stop a repeatedly failing worker and exclude it for the rest of
		// the run.
		w.state = wsQuarantined
		m.releaseAll(rank, "quarantined")
		m.reg.Counter("cluster_workers_quarantined_total").Inc()
		_ = m.tr.Send(rank, mpi.TagStop, nil)
	}
	return nil
}

// sendTask ships t to rank and books the copy in t's holders. Each
// assignment (first issue, retry, speculative copy, renewal) gets its own
// span, so the merged timeline shows exactly which rank held the task when.
// A failed send reports false: the rank vanished and its disconnect retires
// it. A task that cannot be encoded is an error, because it cannot be sent
// to any rank and reissuing it would loop for ever.
func (m *master) sendTask(rank int, t *task, now time.Time) (bool, error) {
	span := m.opts.Trace.StartChild("cluster/task", m.runSpan.Context())
	span.SetInt("rank", rank)
	span.SetInt("v0", t.v0)
	span.SetInt("voxels", t.v)
	tm := taskMsg{V0: t.v0, V: t.v}
	if sc := span.Context(); sc.Valid() {
		tm.Trace, tm.Span = uint64(sc.Trace), uint64(sc.Span)
	}
	body, err := encode(tm)
	if err != nil {
		span.SetAttr("outcome", "encode-failed")
		span.End()
		return false, fmt.Errorf("cluster: encoding task voxels [%d,%d): %w", t.v0, t.v0+t.v, err)
	}
	m.opts.Chaos.Point("master/assign")
	if err := m.tr.Send(rank, mpi.TagTask, body); err != nil {
		span.SetAttr("outcome", "send-failed")
		span.End()
		return false, nil
	}
	if jn := m.opts.Journal; jn != nil {
		// Assignments are advisory (a lost one is just re-issued on
		// resume), so an append failure is survivable and unsynced.
		if err := jn.RecordAssign(t.v0, t.v, rank); err != nil {
			m.reg.Counter("cluster_journal_errors_total").Inc()
		}
	}
	m.reg.Counter("cluster_tasks_issued_total").Inc()
	t.release(rank, "renewed")
	t.holders = append(t.holders, holder{rank: rank, since: now, span: span})
	return true, nil
}

// broadcastStop tells every rank the master knows about to shut down,
// best-effort.
func (m *master) broadcastStop() {
	for rank, w := range m.workers {
		if w.state != wsDead {
			_ = m.tr.Send(rank, mpi.TagStop, nil)
		}
	}
	// Also cover ranks admitted by the transport that never spoke.
	for rank := 1; rank < m.tr.Size(); rank++ {
		if m.workers[rank] == nil {
			_ = m.tr.Send(rank, mpi.TagStop, nil)
		}
	}
}

// WorkerOptions tune a worker's protocol behaviour.
type WorkerOptions struct {
	// HeartbeatInterval between liveness beacons to the master. Zero
	// selects 1s; negative disables heartbeats.
	HeartbeatInterval time.Duration
	// Obs is the registry whose snapshot rides in every report to the
	// master; the worker's own task counters (worker_tasks_total,
	// worker_task_failures_total, worker_task_seconds) record there too.
	// Nil uses obs.Default(), which is right when the worker owns the
	// process (cmd/fcma-cluster); give in-process workers distinct
	// registries so their metrics stay apart (the master counts a registry
	// several ranks share once).
	Obs *obs.Registry
	// Trace, when non-nil, records this worker's side of the distributed
	// timeline: a "worker/task" span per assignment, parented under the
	// master's task span shipped inside the message, with every pipeline
	// stage span nested inside. The completed spans are drained into each
	// report.
	Trace *trace.Tracer
}

// RunWorkerCtx serves tasks until TagStop: announce readiness, answer each
// assignment with one report on TagResult, and heartbeat in the
// background. A task-processing error is reported to the master and the
// worker stays in service — the master decides whether to retry elsewhere
// or quarantine this worker (which arrives as TagStop). A cancelled ctx
// aborts the in-flight task and returns ctx.Err() instead of waiting for
// TagStop; a panicking processor is reported to the master as an error
// report (a *safe.PipelineError message) and the worker stays in service,
// so one poisoned task cannot crash the rank — the master's
// retry/quarantine machinery decides its fate.
//
// A worker that returns an error closes tr on the way out, so the master
// books the rank dead at once instead of waiting for it to speak (for
// ever, with no heartbeat timeout). After a clean TagStop the receive pump
// may stay blocked in one last Recv until the caller closes the transport,
// which cmd/fcma-cluster and RunLocal both do.
func RunWorkerCtx(ctx context.Context, tr mpi.Transport, proc TaskProcessor, opts WorkerOptions) (err error) {
	defer func() {
		if err != nil {
			tr.Close()
		}
	}()
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
	// answer sends the one report on a task, carrying the registry's
	// snapshot and the spans completed since the last report.
	answer := func(tm taskMsg, scores []core.VoxelScore, failure string) error {
		body, err := encode(report{Task: tm, Scores: scores, Err: failure,
			Metrics: reg.Snapshot(), Spans: opts.Trace.Drain()})
		if err != nil {
			return err
		}
		return tr.Send(0, mpi.TagResult, body)
	}
	if err := tr.Send(0, mpi.TagReady, nil); err != nil {
		return fmt.Errorf("cluster: worker ready: %w", err)
	}
	done := make(chan struct{})
	defer close(done)
	hb := opts.HeartbeatInterval
	if hb == 0 {
		hb = time.Second
	}
	if hb > 0 {
		safe.Go("cluster/heartbeat", func() error {
			t := time.NewTicker(hb)
			defer t.Stop()
			for {
				select {
				case <-done:
					return nil
				case <-t.C:
					if err := tr.Send(0, mpi.TagHeartbeat, nil); err != nil {
						return nil
					}
				}
			}
		}, nil)
	}
	// Messages arrive through a pump goroutine, so a cancelled ctx
	// interrupts the wait for the next one.
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
			case <-done:
				return nil
			}
			if err != nil {
				return nil
			}
		}
	}, nil)
	for {
		var msg mpi.Message
		select {
		case r := <-pump:
			if r.err != nil {
				return fmt.Errorf("cluster: worker recv: %w", r.err)
			}
			msg = r.msg
		case <-ctx.Done():
			return ctx.Err()
		}
		switch msg.Tag {
		case mpi.TagStop:
			return nil
		case mpi.TagHeartbeat:
			continue // masters don't heartbeat today; tolerate it anyway
		case mpi.TagTask:
			var tm taskMsg
			if err := decode(msg.Body, &tm); err != nil {
				if err := answer(tm, nil, fmt.Sprintf("undecodable task: %v", err)); err != nil {
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
				scores, err = proc.ProcessContext(tctx, core.Task{V0: tm.V0, V: tm.V})
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
			// A failure is reported and the worker stays in service: the
			// master owns retry policy.
			var failure string
			if perr != nil {
				taskFails.Inc()
				failure = perr.Error()
			}
			if err := answer(tm, scores, failure); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cluster: worker got unexpected %v", msg.Tag)
		}
	}
}
