// Package serve is the FCMA analysis service: a durable job queue with an
// admission-control front door, per-job execution on the library's
// pipeline, and crash-safe recovery.
//
// Durability model. Every lifecycle event that a client can observe is
// journaled through the repo's write-ahead log (internal/wal) before it
// is acknowledged: a job is accepted only after its accept record is
// fsynced (a 202 the server could forget is a lie), each computed voxel
// chunk's scores are fsynced before the executor advances, and terminal
// transitions are fsynced exactly once. A killed server restarts, replays
// the journal, re-queues every non-terminal job, and resumes each from
// its last durable chunk — bit-exact with an uninterrupted run, because
// progress records carry raw float64 bits.
//
// A failed journal write is a crash: the file's state is unknown, so the
// service stops (Stopped) and fcma-serve exits 1; the restart's replay
// cuts the torn tail and resumes every job. A failed dataset-store write
// (an atomic file, never appended to) fails only its upload.
//
// Admission model. The front door refuses work it cannot carry: a bounded
// queue (429 + Retry-After), per-tenant concurrency quotas, and a
// memory-budget gate that estimates each job's working set from its
// dataset dimensions. Refusals are cheap and journal-free; acceptance is
// the expensive promise.
//
// Drain model. On SIGTERM the server stops admitting (readiness flips),
// marks running jobs checkpointing, cancels their contexts at the next
// chunk boundary (all completed progress is already durable), waits for
// executors, and exits; the journal is retained unless every job is
// terminal, so a restart picks up exactly where the drain stopped. A
// settled journal is reduced to its id floor, so ids stay unique per
// state directory.
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fcma/internal/chaos"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
	"fcma/internal/safe"
)

// Options configures a Service. The zero value of each field selects the
// documented default.
type Options struct {
	// Dir is the service's state directory (journal + dataset store).
	// Required.
	Dir string
	// QueueCap bounds the non-terminal jobs admission lets in: a submit
	// beyond it gets 429. It limits only new submits; a restart with a
	// lower cap still resumes every journaled job. Defaults to 16.
	QueueCap int
	// TenantCap bounds one tenant's non-terminal jobs. Defaults to 4.
	TenantCap int
	// MemBudget bounds the summed estimated working set of admitted jobs
	// in bytes; 0 disables the gate.
	MemBudget int64
	// CacheBudget bounds the cache of prepared epoch stacks (each
	// dataset's normalized epochs, what a job runs on) in bytes. Defaults
	// to 256 MiB.
	CacheBudget int64
	// Executors is the number of concurrent job runners. Defaults to 2;
	// negative runs none (tests drive admission without execution).
	Executors int
	// ChunkVoxels is the checkpoint granularity: voxels per journaled
	// chunk. Defaults to 64.
	ChunkVoxels int
	// Workers bounds per-job pipeline parallelism; 0 means GOMAXPROCS.
	Workers int
	// JobTimeout bounds one execution attempt. Defaults to 10 minutes.
	JobTimeout time.Duration
	// JobRetries is the default extra attempts for a failing job (specs
	// may override). Defaults to 2.
	JobRetries int
	// Obs receives the service's metrics; nil uses a fresh registry.
	Obs *obs.Registry
	// Trace receives request and job spans; nil disables tracing (the
	// nil-tracer hot path costs one branch per span site).
	Trace *trace.Tracer
	// FS is the filesystem seam for the journal and dataset store; nil
	// uses the real one. Crash tests pass one that injects faults or
	// stops taking writes.
	FS chaos.FS
	// Log receives structured service logs; nil uses slog.Default().
	Log *slog.Logger
}

// withDefaults resolves the documented defaults.
func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 16
	}
	if o.TenantCap <= 0 {
		o.TenantCap = 4
	}
	if o.CacheBudget == 0 {
		o.CacheBudget = 256 << 20
	}
	if o.Executors == 0 {
		o.Executors = 2
	}
	if o.ChunkVoxels <= 0 {
		o.ChunkVoxels = 64
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 10 * time.Minute
	}
	if o.JobRetries < 0 {
		o.JobRetries = 0
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	if o.FS == nil {
		o.FS = chaos.OS()
	}
	if o.Log == nil {
		o.Log = slog.Default()
	}
	return o
}

// Service is a running analysis service instance.
type Service struct {
	opts   Options
	reg    *obs.Registry
	tracer *trace.Tracer
	jnl    *journal
	store  *datasetStore
	ready  obs.Readiness

	mu      sync.Mutex
	jobs    map[string]*jobRecord // also the run queue: its accepted jobs
	tenants map[string]*tenantRow
	seq     int
	// wake, on mu, rouses the idle executors: a submit signals it, and the
	// cancellation of execCtx broadcasts it.
	wake *sync.Cond

	execWG     sync.WaitGroup
	execCtx    context.Context
	execCancel context.CancelFunc
	// uploadSem gates how many dataset uploads may be buffered in memory
	// at once (see maxConcurrentUploads).
	uploadSem chan struct{}
	stopped   chan error // the journal's first failure (halt)
	haltOnce  sync.Once
}

// New opens the service on its state directory: replays the job journal,
// re-queues every non-terminal job, and starts the executor pool. A
// directory left by a killed or drained server resumes transparently.
func New(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("serve: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating state dir: %w", err)
	}
	reg := opts.Obs
	store, err := newDatasetStore(opts.Dir, opts.FS, opts.CacheBudget, opts.Workers, reg)
	if err != nil {
		return nil, err
	}
	s := &Service{
		opts: opts, reg: reg, tracer: opts.Trace, store: store,
		tenants:   make(map[string]*tenantRow),
		uploadSem: make(chan struct{}, maxConcurrentUploads),
		stopped:   make(chan error, 1),
	}
	jnl, err := openJournal(opts.FS, filepath.Join(opts.Dir, "jobs.jnl"), reg, store, s.halt)
	if err != nil {
		return nil, err
	}
	s.jnl, s.jobs, s.seq = jnl, jnl.jobs, jnl.maxSeq
	s.wake = sync.NewCond(&s.mu)
	s.execCtx, s.execCancel = context.WithCancel(context.Background())
	context.AfterFunc(s.execCtx, func() {
		s.mu.Lock()
		s.wake.Broadcast()
		s.mu.Unlock()
	})

	// Replayed non-terminal jobs are accepted ones, which the executors
	// take in id order before any new submit (none runs yet: no lock).
	_, resumed, _ := s.queueLocked()
	if resumed > 0 || len(s.jobs) > 0 {
		opts.Log.Info("serve: journal replayed",
			"jobs", len(s.jobs), "resumed", resumed, "dir", opts.Dir)
	}
	reg.Gauge("serve_jobs_resumed").Set(float64(resumed))

	s.ready.Set(true, "") // before the executors, whose failed append halts
	for i := 0; i < opts.Executors; i++ {
		s.execWG.Add(1)
		safe.Go("serve/executor", func() error {
			defer s.execWG.Done()
			for s.runNext() {
			}
			return nil
		}, func(err error) {
			if err != nil {
				s.opts.Log.Error("serve: executor crashed", "err", err)
			}
		})
	}
	return s, nil
}

// Readiness exposes the service's readiness flag for /readyz.
func (s *Service) Readiness() *obs.Readiness { return &s.ready }

// Stopped delivers, once, the journal's first failure, on which the
// service has stopped and only a restart can go on.
func (s *Service) Stopped() <-chan error { return s.stopped }

// halt is Drain's stop without the courtesies, on a failed journal write:
// readiness (which gates admission) goes false and the executors are
// cancelled. It takes no lock; the journal calls it under its callers'
// (the wake-up that execCancel triggers waits for theirs).
func (s *Service) halt(err error) {
	s.haltOnce.Do(func() {
		s.ready.Set(false, "journal")
		s.execCancel()
		s.opts.Log.Error("serve: journal write failed; stopping for a restart", "err", err)
		s.stopped <- err
	})
}

// Metrics exposes the service's registry: request, journal and tenant
// series, and the pipeline series every job's worker records into it.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// MetricsSnapshot is the registry's snapshot with the two queue gauges
// refreshed first — wire this (not reg.Snapshot) into obs.NewMux so
// /metrics shows the queue as of the scrape.
func (s *Service) MetricsSnapshot() obs.Snapshot {
	s.mu.Lock()
	_, depth, oldest := s.queueLocked()
	s.mu.Unlock()
	s.reg.Gauge("serve_queue_depth").Set(float64(depth))
	age := 0.0
	if !oldest.IsZero() {
		age = time.Since(oldest).Seconds()
	}
	s.reg.Gauge("serve_queue_age_seconds").Set(age)

	return s.reg.Snapshot()
}

// Submit validates, admits, journals, and queues a job, returning its ID.
// The accept record is durable before Submit returns: a 202 built on the
// returned ID is a promise the server can keep across a crash. Rejections
// come back as *admitError (429/503 with Retry-After; 503 with the reason
// when not ready, reasonAcceptUnknown when the accept record failed, as
// it may still replay) or plain errors (400-shaped validation failures).
//
// The job's trace root is opened here: when ctx carries a span (the HTTP
// middleware's request span) the job joins that trace, so one timeline
// runs request → admission → queue wait → attempts → kernels; otherwise
// the job gets a fresh trace of its own. The root stays open until the
// job's terminal transition.
func (s *Service) Submit(ctx context.Context, spec JobSpec) (string, error) {
	job, err := spec.validate(s.store)
	if err != nil {
		return "", fmt.Errorf("serve: invalid spec: %w", err)
	}
	tenant := spec.tenant()
	jctx, span := trace.StartSpan(ctx, "serve/job")
	if span == nil && s.tracer != nil {
		span = s.tracer.StartTrace("serve/job")
		jctx = trace.WithRemoteParent(ctx, s.tracer, span.Context())
	}
	span.SetAttr("tenant", tenant)
	s.mu.Lock()
	defer s.mu.Unlock()
	row := s.tenantLocked(tenant)
	reject := func(aerr *admitError) (string, error) {
		row.rejected.Inc()
		s.reg.Counter("serve_jobs_rejected_total").Inc()
		span.SetAttr("rejected", aerr.Reason)
		span.End()
		return "", aerr
	}
	if ok, why := s.ready.Ready(); !ok {
		return reject(&admitError{Status: 503, RetryAfter: 10, Reason: why})
	}
	_, admitSpan := trace.StartSpan(jctx, "serve/admit")
	aerr := s.admit(job)
	admitSpan.End()
	if aerr != nil {
		return reject(aerr)
	}
	s.seq++
	id := fmt.Sprintf("job-%08d", s.seq)
	span.SetAttr("job", id)
	// Never acknowledge work you cannot journal: the failed append has
	// stopped the service, and only its restart knows the outcome.
	_, walSpan := trace.StartSpan(jctx, "serve/wal_accept")
	err = s.jnl.recordAccept(id, spec)
	walSpan.End()
	if err != nil {
		return reject(&admitError{Status: 503, RetryAfter: 10, Reason: reasonAcceptUnknown, ID: id})
	}
	job.ID, job.created, job.span, job.traceSC = id, time.Now(), span, span.Context()
	_, job.queueWait = row.queueWait.Begin(jctx, "serve/queue_wait")
	s.jobs[id] = job
	row.submitted.Inc()
	row.estimatedBytes.Add(uint64(job.estBytes))
	s.reg.Counter("serve_jobs_accepted_total").Inc()
	s.wake.Signal()
	return id, nil
}

// reasonAcceptUnknown warns that a blind resubmit could run the job twice.
const reasonAcceptUnknown = "journal failed: whether the job was accepted is unknown until the server restarts; look it up by id then before submitting it again"

// Cancel requests a job stop. A queued job is canceled immediately; a
// running one is interrupted at its next chunk boundary and records
// canceled. Terminal jobs return an error.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return errUnknownJob
	}
	switch {
	case job.State.Terminal():
		return fmt.Errorf("serve: job %s already %s", id, job.State)
	case job.State == stateAccepted:
		return s.transitionLocked(job, stateCanceled, "canceled before start")
	default:
		job.canceling = true
		if job.cancel != nil {
			job.cancel()
		}
		return nil
	}
}

// errUnknownJob distinguishes 404 from 409 at the HTTP layer.
var errUnknownJob = fmt.Errorf("serve: unknown job")

// transitionLocked performs one state-machine edge under the service
// mutex: legality check, journal record (fsynced when terminal), then the
// in-memory flip. The single writer of every terminal record — the
// exactly-once guarantee lives here. A failed record stops the service.
func (s *Service) transitionLocked(job *jobRecord, to jobState, errMsg string) error {
	if !canTransition(job.State, to) {
		return fmt.Errorf("serve: illegal transition %s → %s for %s", job.State, to, job.ID)
	}
	if err := s.jnl.recordState(job.ID, to, errMsg); err != nil {
		return err
	}
	job.State = to
	job.Err = errMsg
	s.reg.Counter("serve_jobs_" + string(to) + "_total").Inc()
	s.tenantLocked(job.Spec.tenant()).settled[to].Inc()
	if to.Terminal() {
		job.endSpans(string(to))
		if job.settled != nil {
			close(job.settled)
		}
	}
	return nil
}

// Drain gracefully shuts the service down: stop admitting (readiness
// flips), mark running jobs checkpointing, stop executors at their next
// chunk boundary, and close the journal — reducing it to its id floor only
// when every job is terminal, so an operator restarting after a drain
// mid-backlog loses nothing and the next service lists no settled job but
// reuses none of its ids. Returns once executors have stopped or ctx
// expires.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.ready.Set(false, "draining")
	for _, job := range s.jobs {
		if job.State == stateRunning {
			// Advisory: a crash during drain replays this as a resumable
			// job either way.
			_ = s.transitionLocked(job, stateCheckpointing, "")
		}
	}
	s.mu.Unlock()

	s.execCancel()
	done := make(chan struct{})
	safe.Go("serve/drain-wait", func() error {
		s.execWG.Wait()
		close(done)
		return nil
	}, func(err error) {
		if err != nil {
			s.opts.Log.Error("serve: drain wait crashed", "err", err)
		}
	})
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out: %w", ctx.Err())
	}

	s.mu.Lock()
	allTerminal := true
	for _, job := range s.jobs {
		if !job.State.Terminal() {
			allTerminal = false
			break
		}
	}
	seq := s.seq
	s.mu.Unlock()
	if err := s.jnl.close(); err != nil {
		return fmt.Errorf("serve: closing journal: %w", err)
	}
	if allTerminal {
		if err := s.jnl.reduce(seq); err != nil {
			return fmt.Errorf("serve: reducing settled journal: %w", err)
		}
		s.opts.Log.Info("serve: drained clean, journal reduced to its id floor")
	} else {
		s.opts.Log.Info("serve: drained with unfinished jobs, journal retained")
	}
	return nil
}

// Close stops executors and closes the journal without the drain
// courtesies — for tests. The journal is always retained.
func (s *Service) Close() error {
	s.execCancel()
	s.execWG.Wait()
	return s.jnl.close()
}
