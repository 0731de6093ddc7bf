package serve

import "fcma/internal/obs"

// tenantRow is one tenant's ledger: its tenant-labeled series, which
// /metrics renders and GET /api/v1/stats reads. Each event writes one.
type tenantRow struct {
	submitted, rejected, estimatedBytes *obs.Counter
	settled                             map[jobState]*obs.Counter // by terminal state
	compute, queueWait                  *obs.Histogram            // job and queue_wait seconds
}

// tenantLocked returns the tenant's row, resolving its series when the
// tenant first appears. Callers hold s.mu.
func (s *Service) tenantLocked(tenant string) *tenantRow {
	if row, ok := s.tenants[tenant]; ok {
		return row
	}
	l, reg := obs.L("tenant", tenant), s.reg
	row := &tenantRow{
		submitted:      reg.Counter("serve_tenant_jobs_submitted_total", l),
		rejected:       reg.Counter("serve_tenant_jobs_rejected_total", l),
		estimatedBytes: reg.Counter("serve_tenant_estimated_bytes_total", l),
		settled: map[jobState]*obs.Counter{
			stateDone:     reg.Counter("serve_tenant_jobs_completed_total", l),
			stateFailed:   reg.Counter("serve_tenant_jobs_failed_total", l),
			stateCanceled: reg.Counter("serve_tenant_jobs_canceled_total", l),
		},
		compute:   reg.Histogram("serve_tenant_job_seconds", nil, l),
		queueWait: reg.Histogram("serve_tenant_queue_wait_seconds", nil, l),
	}
	s.tenants[tenant] = row
	return row
}

// tenantStats is the wire form of one tenant's row in GET /api/v1/stats:
// accepted jobs, their terminal outcomes and the admission refusals;
// Active, the non-terminal jobs now; executor wall time (all attempts)
// and queue wait (submit to pickup or cancel); and the admission-time
// working-set estimates the memory-budget gate meters.
type tenantStats struct {
	Submitted        uint64  `json:"submitted"`
	Completed        uint64  `json:"completed"`
	Failed           uint64  `json:"failed"`
	Canceled         uint64  `json:"canceled"`
	Rejected         uint64  `json:"rejected"`
	Active           int     `json:"active"`
	ComputeSeconds   float64 `json:"compute_seconds"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	EstimatedBytes   int64   `json:"estimated_bytes"`
}

// tenantSnapshot renders every tenant's row, with Active counted from the
// live job table (which gives a tenant known only from replay its row).
func (s *Service) tenantSnapshot() map[string]tenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	active := make(map[string]int)
	for _, j := range s.jobs {
		if !j.State.Terminal() {
			s.tenantLocked(j.Spec.tenant())
			active[j.Spec.tenant()]++
		}
	}
	out := make(map[string]tenantStats, len(s.tenants))
	for tenant, row := range s.tenants {
		out[tenant] = tenantStats{
			Submitted:        row.submitted.Value(),
			Completed:        row.settled[stateDone].Value(),
			Failed:           row.settled[stateFailed].Value(),
			Canceled:         row.settled[stateCanceled].Value(),
			Rejected:         row.rejected.Value(),
			Active:           active[tenant],
			ComputeSeconds:   row.compute.Sum(),
			QueueWaitSeconds: row.queueWait.Sum(),
			EstimatedBytes:   int64(row.estimatedBytes.Value()),
		}
	}
	return out
}
