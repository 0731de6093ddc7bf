package serve

import (
	"fmt"
)

// admitError is an admission rejection: the HTTP layer maps Status and
// RetryAfter straight onto the response (429 + Retry-After for pressure,
// 503 + Retry-After when draining or stopped, where only a
// reasonAcceptUnknown 503 may hide an accepted job, named in ID). A
// malformed spec is not one: it fails validation with a plain error,
// answered 400.
type admitError struct {
	Status     int
	RetryAfter int // seconds; 0 means no Retry-After header
	Reason     string
	ID         string // the job whose accept is in doubt, or ""
}

// Error implements error.
func (e *admitError) Error() string { return e.Reason }

// admit decides whether a new job may enter the queue. Called with the
// Service mutex held, BEFORE anything is journaled — the front door's
// contract is that an accepted job is always one the server can journal,
// queue, and eventually run. Checks, in order:
//
//  1. queue bound: at most QueueCap non-terminal jobs, so the backlog
//     (and the journal growth per incarnation) stays bounded;
//  2. per-tenant quota: one tenant cannot occupy the whole queue;
//  3. memory budget: the sum of admitted jobs' estimated working sets
//     must fit MemBudget, refusing work that would thrash the box
//     rather than OOMing mid-run.
func (s *Service) admit(job *jobRecord) *admitError {
	tenant := job.Spec.tenant()
	active, tenantActive := 0, 0
	var estimated int64
	for _, j := range s.jobs {
		if j.State.Terminal() {
			continue
		}
		active++
		if j.Spec.tenant() == tenant {
			tenantActive++
		}
		estimated += j.estBytes
	}
	if active >= s.opts.QueueCap {
		return &admitError{
			Status: 429, RetryAfter: s.retryAfter(active),
			Reason: fmt.Sprintf("queue full (%d jobs active, cap %d)", active, s.opts.QueueCap),
		}
	}
	if tenantActive >= s.opts.TenantCap {
		return &admitError{
			Status: 429, RetryAfter: s.retryAfter(tenantActive),
			Reason: fmt.Sprintf("tenant %q quota exhausted (%d jobs active, cap %d)", tenant, tenantActive, s.opts.TenantCap),
		}
	}
	if need := job.estBytes; s.opts.MemBudget > 0 && estimated+need > s.opts.MemBudget {
		return &admitError{
			Status: 429, RetryAfter: s.retryAfter(active),
			Reason: fmt.Sprintf("memory budget exhausted (%d MiB estimated + %d MiB requested > %d MiB budget)",
				estimated>>20, need>>20, s.opts.MemBudget>>20),
		}
	}
	return nil
}

// estimateBytes approximates a job's peak working set from the dataset
// dimensions: the float32 activity, the normalized epoch stack (sized by
// stackBytes, its M·T bounded by all the dataset's time points), and
// correlation scratch. A deliberate overestimate; admission errs toward
// refusing, never toward OOM.
func (s *datasetStore) estimateBytes(spec JobSpec, id datasetID) int64 {
	var voxels, timePoints int64
	if spec.Synthetic != "" {
		fs := syntheticSpec(spec)
		voxels = int64(fs.Voxels)
		timePoints = int64(fs.Subjects) * int64(fs.EpochsPerSubject) * int64(fs.EpochLen+fs.RestLen)
	} else if meta, err := s.Meta(id); err == nil {
		voxels = int64(meta.Voxels)
		timePoints = int64(meta.TimePoints)
	} else {
		// Unknown dataset: admission lets it through and the executor
		// fails the job with a real error message.
		return 0
	}
	return voxels*timePoints*4 + stackBytes(timePoints, voxels) + voxels*2048 + 8<<20
}

// retryAfter estimates when pressure might clear: a rough per-active-job
// drain time, clamped to a sane header value. Deliberately coarse — its
// job is to spread thundering-herd resubmits, not to predict runtimes.
func (s *Service) retryAfter(active int) int {
	sec := 2 * active
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}
