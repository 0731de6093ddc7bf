package serve

import (
	"context"
	"fmt"
	"time"

	"fcma/internal/core"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
)

// jobState is a job's position in the service's state machine:
//
//	accepted ──▶ running ──▶ done
//	    │           │  ▲        (terminal)
//	    │           ▼  │
//	    │      checkpointing ──▶ done/failed/canceled
//	    │           │
//	    ▼           ▼
//	 canceled    failed/canceled   (terminal)
//
// accepted: journaled and queued in the job table, not yet picked up.
// running: an executor is computing chunks (each chunk's scores are
// journaled before the job advances past it). checkpointing: the server
// is draining; the executor is stopping at the next chunk boundary with
// all completed progress durable. done/failed/canceled: terminal.
type jobState string

const (
	stateAccepted      jobState = "accepted"
	stateRunning       jobState = "running"
	stateCheckpointing jobState = "checkpointing"
	stateDone          jobState = "done"
	stateFailed        jobState = "failed"
	stateCanceled      jobState = "canceled"
)

// Terminal reports whether the state is final: the job holds no resources
// and its journal records are settled.
func (s jobState) Terminal() bool {
	return s == stateDone || s == stateFailed || s == stateCanceled
}

// valid reports whether s is a state the journal may contain.
func (s jobState) valid() bool {
	switch s {
	case stateAccepted, stateRunning, stateCheckpointing, stateDone, stateFailed, stateCanceled:
		return true
	}
	return false
}

// canTransition encodes the legal edges of the state machine; the journal
// refuses to record (and replay refuses to apply) anything else, so a
// code path that would, say, re-complete a done job fails loudly instead
// of corrupting the exactly-once guarantee.
func canTransition(from, to jobState) bool {
	switch from {
	case stateAccepted:
		return to == stateRunning || to == stateCanceled || to == stateFailed
	case stateRunning:
		return to == stateCheckpointing || to == stateDone || to == stateFailed || to == stateCanceled
	case stateCheckpointing:
		return to == stateRunning || to == stateDone || to == stateFailed || to == stateCanceled
	default: // terminal states have no outgoing edges
		return false
	}
}

// JobSpec is the client-supplied description of one analysis job: which
// dataset to run voxel selection on and how. Exactly one of Synthetic or
// Dataset must be set.
type JobSpec struct {
	// Tenant identifies the submitter for quota accounting; empty means
	// the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Name is a human label echoed back in status documents.
	Name string `json:"name,omitempty"`
	// Synthetic names a built-in generated dataset shape: "face-scene" or
	// "attention" (the paper's Table 2 shapes), scaled by Scale.
	Synthetic string `json:"synthetic,omitempty"`
	// Scale shrinks the synthetic shape (1 = paper size). Defaults to a
	// small smoke-test scale when zero.
	Scale float64 `json:"scale,omitempty"`
	// Dataset is the content hash of a dataset previously uploaded via
	// POST /api/v1/datasets.
	Dataset string `json:"dataset,omitempty"`
	// TopK limits the result to the K best voxels; 0 returns every voxel.
	TopK int `json:"top_k,omitempty"`
	// TimeoutMS bounds the job's wall-clock execution per attempt; 0 uses
	// the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Retries is how many extra attempts a transiently failing job gets;
	// negative means the server default.
	Retries int `json:"retries,omitempty"`
}

// validate is the one check a spec passes, on submit and on journal
// replay alike, and so the one way to build a jobRecord: it range-checks every
// field, parses Dataset into the datasetID the store takes, and takes the
// job's working-set estimate from store once. The caller sets the ID.
func (s JobSpec) validate(store *datasetStore) (*jobRecord, error) {
	id, ok := parseDatasetID(s.Dataset)
	if (s.Synthetic == "") == (s.Dataset == "") {
		return nil, fmt.Errorf("spec must set exactly one of synthetic or dataset")
	}
	if s.Synthetic != "" && s.Synthetic != "face-scene" && s.Synthetic != "attention" {
		return nil, fmt.Errorf("unknown synthetic shape %q (want face-scene or attention)", s.Synthetic)
	}
	if s.Dataset != "" && !ok {
		return nil, fmt.Errorf("dataset %q is not a content hash (want the 64 hex digits returned by the upload endpoint)", s.Dataset)
	}
	// Written so that NaN, which fails every comparison, fails this one.
	if !(s.Scale >= 0 && s.Scale <= 1) {
		return nil, fmt.Errorf("scale %g out of range (0, 1]", s.Scale)
	}
	if s.TopK < 0 {
		return nil, fmt.Errorf("top_k %d negative", s.TopK)
	}
	if s.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms %d negative", s.TimeoutMS)
	}
	return &jobRecord{Spec: s, State: stateAccepted, dataset: id, estBytes: store.estimateBytes(s, id)}, nil
}

// datasetID names an uploaded dataset blob: a lowercase sha256 hex digest,
// the only reference the upload endpoint ever issues. It is joined into a
// store path, so it is made only by parseDatasetID and by the store's Put.
type datasetID string

// parseDatasetID accepts exactly 64 lowercase hex digits; anything else
// (in particular a path fragment like "../jobs.jnl") is not a datasetID.
func parseDatasetID(s string) (datasetID, bool) {
	if len(s) != 64 {
		return "", false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	return datasetID(s), true
}

// scale returns the effective synthetic scale.
func (s JobSpec) scale() float64 {
	if s.Scale == 0 {
		return 0.02
	}
	return s.Scale
}

// tenant returns the effective tenant.
func (s JobSpec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// jobRecord is the server-side record of one submitted analysis, built by
// JobSpec.validate. All fields are guarded by the Service mutex.
type jobRecord struct {
	ID    string
	Spec  JobSpec
	State jobState
	// Spec.Dataset parsed, and the working set admission charges.
	dataset  datasetID
	estBytes int64
	// Err holds the failure message of a failed job.
	Err string
	// Attempts counts execution attempts (for status reporting).
	Attempts int

	// scores accumulates journaled per-voxel accuracies; chunks marks
	// which task ranges (keyed by V0) are already durable, so a resumed
	// or retried job skips them.
	scores map[int]float64
	chunks map[int]bool
	// totalVoxels is the brain size once known (0 before the first
	// attempt resolves the dataset).
	totalVoxels int
	// result is the final sorted ranking, rebuilt from scores at
	// completion (and at replay, for jobs already done).
	result []core.VoxelScore

	// cancel aborts the running attempt's context; nil when no executor
	// owns the job.
	cancel context.CancelFunc
	// canceling marks a user cancellation request observed while the job
	// was running, so the executor records canceled rather than failed.
	canceling bool
	// settled is closed at the job's terminal transition, releasing every
	// result request waiting on it; made by the first such request.
	settled chan struct{}

	// created is the submit time, for the queue-age gauge; queueWait the
	// open serve/queue_wait interval, ended at pickup or by a cancel. Both
	// are zero for a job replayed from the journal.
	created   time.Time
	queueWait obs.Interval

	// span is the job's open trace root (nil when tracing is off);
	// traceSC its portable context, under which the executor parents
	// attempt, WAL, and kernel spans.
	span    *trace.Active
	traceSC trace.SpanContext
}

// endSpans closes the job's open intervals at its terminal transition,
// stamping the outcome on the root. Idempotent: each ends once.
func (j *jobRecord) endSpans(state string) {
	j.queueWait.End()
	j.queueWait = obs.Interval{}
	if j.span != nil {
		j.span.SetAttr("state", state)
		j.span.End()
		j.span = nil
	}
}

// traceID renders the job's trace id for status documents ("" when the
// job was never traced).
func (j *jobRecord) traceID() string {
	if !j.traceSC.Valid() {
		return ""
	}
	return j.traceSC.Trace.String()
}

// progress returns how many voxels have durable scores.
func (j *jobRecord) progress() int { return len(j.scores) }

// mergeChunk folds one journaled chunk (task range [v0, v0+v)) into the
// job's progress state.
func (j *jobRecord) mergeChunk(v0, v int, scores []core.VoxelScore) {
	if j.scores == nil {
		j.scores = make(map[int]float64)
	}
	if j.chunks == nil {
		j.chunks = make(map[int]bool)
	}
	for _, s := range scores {
		j.scores[s.Voxel] = s.Accuracy
	}
	j.chunks[v0] = true
	if v0+v > j.totalVoxels {
		j.totalVoxels = v0 + v
	}
}

// finalize rebuilds the sorted result ranking from the accumulated
// scores — the same path whether the job just finished or was replayed
// from the journal, so a resumed server serves bit-identical results.
func (j *jobRecord) finalize() {
	scores := make([]core.VoxelScore, 0, len(j.scores))
	for v, acc := range j.scores {
		scores = append(scores, core.VoxelScore{Voxel: v, Accuracy: acc})
	}
	j.result = core.TopVoxels(scores, j.Spec.TopK)
}
