package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"fcma/internal/core"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
	"fcma/internal/retry"
)

// queueLocked walks the run queue, the job table's accepted jobs: the one
// with the lowest id, which runs next (resumed jobs first, then submit
// order), how many wait, and the oldest submit time among them (a
// replayed job has none). Callers hold s.mu.
func (s *Service) queueLocked() (next *jobRecord, depth int, oldest time.Time) {
	for _, j := range s.jobs {
		if j.State != stateAccepted {
			continue
		}
		depth++
		if next == nil || j.ID < next.ID {
			next = j
		}
		if !j.created.IsZero() && (oldest.IsZero() || j.created.Before(oldest)) {
			oldest = j.created
		}
	}
	return next, depth, oldest
}

// runNext waits for an accepted job and executes it end to end:
// transition to running, bounded retries around the chunked attempt, then
// exactly one terminal transition — unless a drain checkpointed it (stays
// resumable). It reports false, having run nothing, once the executors
// are stopped.
func (s *Service) runNext() bool {
	s.mu.Lock()
	job, _, _ := s.queueLocked()
	for job == nil && s.execCtx.Err() == nil {
		s.wake.Wait()
		job, _, _ = s.queueLocked()
	}
	if s.execCtx.Err() != nil {
		s.mu.Unlock()
		return false
	}
	id := job.ID
	// A job replayed from the journal has no trace yet (the submitting
	// request's span died with the previous incarnation); give resumed
	// work its own timeline.
	if !job.traceSC.Valid() && s.tracer != nil {
		job.span = s.tracer.StartTrace("serve/job")
		job.span.SetAttr("job", id)
		job.span.SetAttr("tenant", job.Spec.tenant())
		job.span.SetAttr("resumed", "true")
		job.traceSC = job.span.Context()
	}
	job.queueWait.End()
	job.queueWait = obs.Interval{} // so the terminal endSpans does not end it again
	row := s.tenantLocked(job.Spec.tenant())
	if err := s.transitionLocked(job, stateRunning, ""); err != nil {
		s.mu.Unlock() // the journal failed and the service stopped
		return false
	}
	timeout := s.opts.JobTimeout
	if job.Spec.TimeoutMS > 0 {
		timeout = time.Duration(job.Spec.TimeoutMS) * time.Millisecond
	}
	// jobCtx spans every attempt (cancel/drain cuts them all); the timeout
	// is applied per attempt inside the retry op, so a timed-out attempt
	// still gets its configured retries with a fresh budget each. The ctx
	// carries the job's trace root so attempt, WAL, and kernel spans all
	// land in the job's timeline — not the long-dead submit request's
	// goroutine context.
	jobCtx, cancel := context.WithCancel(trace.WithRemoteParent(s.execCtx, s.tracer, job.traceSC))
	job.cancel = cancel
	spec := job.Spec
	s.mu.Unlock()
	defer cancel()

	attempts := 1 + s.opts.JobRetries
	if spec.Retries > 0 {
		attempts = 1 + spec.Retries
	}
	policy := retry.Policy{
		Attempts:  attempts,
		BaseDelay: 200 * time.Millisecond,
		Seed:      retrySeed(id),
	}
	execStart := time.Now()
	err := retry.Do(jobCtx, policy, func(ctx context.Context, attempt int) error {
		s.mu.Lock()
		job.Attempts = attempt
		s.mu.Unlock()
		actx, acancel := context.WithTimeout(ctx, timeout)
		defer acancel()
		actx, attemptSpan := trace.StartSpan(actx, "serve/attempt")
		attemptSpan.SetInt("attempt", attempt)
		aerr := s.attempt(actx, job, spec)
		if aerr != nil {
			attemptSpan.SetAttr("error", aerr.Error())
		}
		attemptSpan.End()
		return aerr
	})
	row.compute.Observe(time.Since(execStart).Seconds())
	s.finish(job, err)
	return true
}

// retrySeed seeds a job's backoff jitter from the FNV hash of its ID:
// the same job retries on the same timing in every incarnation, and jobs
// failing together spread their retries apart.
func retrySeed(id string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int64(h.Sum64())
}

// attempt runs one execution pass over the job's voxel chunks, skipping
// every chunk the journal already holds — the incremental core of both
// crash resume and retry.
func (s *Service) attempt(ctx context.Context, job *jobRecord, spec JobSpec) error {
	stack, err := s.store.Get(ctx, spec, job.dataset)
	if err != nil {
		return err
	}
	cfg := core.Optimized()
	cfg.Workers = s.opts.Workers
	cfg.Obs = s.reg
	worker, err := core.NewWorker(cfg, stack, nil)
	if err != nil {
		return err
	}

	s.mu.Lock()
	job.totalVoxels = stack.N
	s.mu.Unlock()

	chunk := s.opts.ChunkVoxels
	for v0 := 0; v0 < stack.N; v0 += chunk {
		n := min(chunk, stack.N-v0)
		s.mu.Lock()
		done := job.chunks[v0]
		s.mu.Unlock()
		if done {
			s.reg.Counter("serve_chunks_skipped_journaled_total").Inc()
			continue
		}
		scores, err := worker.ProcessContext(ctx, core.Task{V0: v0, V: n})
		if err != nil {
			return err
		}
		// Durability before action: the chunk's scores hit stable storage
		// before the job advances past it, so a crash loses at most the
		// chunk in flight (same ordering as the cluster master).
		_, walSpan := trace.StartSpan(ctx, "serve/wal_append")
		walSpan.SetInt("v0", v0)
		err = s.jnl.recordProgress(job.ID, v0, n, scores)
		walSpan.End()
		if err != nil {
			return fmt.Errorf("journaling chunk %d: %w", v0, err)
		}
		s.mu.Lock()
		job.mergeChunk(v0, n, scores)
		s.mu.Unlock()
		s.reg.Counter("serve_chunks_done_total").Inc()
	}
	return nil
}

// finish records the job's one terminal transition (or deliberately none:
// drain, and a failed journal write, leave it for the next incarnation).
func (s *Service) finish(job *jobRecord, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job.cancel = nil
	switch {
	case err == nil:
		job.finalize()
		_ = s.transitionLocked(job, stateDone, "")
	case job.canceling:
		_ = s.transitionLocked(job, stateCanceled, "canceled by client")
	case errors.Is(err, context.Canceled):
		// Server shutdown (drain, Close or a journal failure), not a
		// client cancel: the job stays non-terminal — checkpointed — and
		// resumes on restart from its journaled chunks.
	case errors.Is(err, context.DeadlineExceeded):
		_ = s.transitionLocked(job, stateFailed, fmt.Sprintf("timed out after %d attempts", retry.Attempts(err)))
	default:
		_ = s.transitionLocked(job, stateFailed, err.Error())
	}
}
