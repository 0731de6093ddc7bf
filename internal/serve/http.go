package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"fcma/internal/core"
	"fcma/internal/obs"
)

// maxUploadBytes bounds one dataset upload; bigger data belongs on the
// batch CLI path, not a request body. Uploads are buffered in memory, so
// this cap times maxConcurrentUploads is the endpoint's worst-case
// resident footprint.
const maxUploadBytes = 256 << 20

// maxConcurrentUploads bounds how many uploads may be buffered at once;
// beyond it the server sheds with 429 rather than letting a burst of
// large bodies exhaust memory.
const maxConcurrentUploads = 4

// resultHold bounds how long a result request waits for its job to
// settle before answering 409, so a client's first GET returns the
// moment a short job finishes instead of one poll interval later.
const resultHold = time.Second

// Handler returns the service's API mux:
//
//	POST   /api/v1/jobs          submit (202, 400, 429+Retry-After, 503)
//	GET    /api/v1/jobs          list
//	GET    /api/v1/jobs/{id}     status + progress
//	GET    /api/v1/jobs/{id}/result  scores (200 once done; waits up to
//	                                 resultHold for the job to settle,
//	                                 then 409 naming its state; 404)
//	DELETE /api/v1/jobs/{id}     cancel (202; 409 when terminal)
//	POST   /api/v1/datasets      upload content-addressed dataset (201)
//	GET    /api/v1/stats         per-tenant accounting
//
// Every route runs under the obs HTTP middleware: per-route RED metrics,
// request ids (client X-Request-ID honored, one generated otherwise),
// per-request trace roots, and structured access logs. Observability
// endpoints (/metrics, /healthz, /readyz, pprof) are mounted by the
// daemon via obs.NewMux on the same server.
func (s *Service) Handler() http.Handler {
	mw := obs.HTTPMiddleware{Reg: s.reg, Log: s.opts.Log, Tracer: s.tracer}
	mux := http.NewServeMux()
	for _, r := range []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"POST /api/v1/jobs", s.handleSubmit},
		{"GET /api/v1/jobs", s.handleList},
		{"GET /api/v1/jobs/{id}", s.handleStatus},
		{"GET /api/v1/jobs/{id}/result", s.handleResult},
		{"DELETE /api/v1/jobs/{id}", s.handleCancel},
		{"POST /api/v1/datasets", s.handleUpload},
		{"GET /api/v1/stats", s.handleStats},
	} {
		mux.Handle(r.pattern, mw.Wrap(r.pattern, r.h))
	}
	return mux
}

// jobStatus is the wire form of a job's state.
type jobStatus struct {
	ID       string   `json:"id"`
	State    jobState `json:"state"`
	Tenant   string   `json:"tenant"`
	Name     string   `json:"name,omitempty"`
	Error    string   `json:"error,omitempty"`
	Attempts int      `json:"attempts,omitempty"`
	// DoneVoxels/TotalVoxels expose checkpoint progress; Total is 0 until
	// the first attempt resolves the dataset.
	DoneVoxels  int `json:"done_voxels"`
	TotalVoxels int `json:"total_voxels"`
	// TraceID names the job's span timeline in a -trace-out dump; empty
	// when the server runs untraced.
	TraceID string `json:"trace_id,omitempty"`
}

// statusLocked snapshots a job for the wire (service mutex held).
func statusLocked(j *jobRecord) jobStatus {
	return jobStatus{
		ID: j.ID, State: j.State, Tenant: j.Spec.tenant(), Name: j.Spec.Name,
		Error: j.Err, Attempts: j.Attempts,
		DoneVoxels: j.progress(), TotalVoxels: j.totalVoxels,
		TraceID: j.traceID(),
	}
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error document, mapping admission rejections
// to their status and Retry-After.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// decodeSpec reads a submitted job spec. A field the spec does not have
// is an error naming it, not a job that silently ignores what its
// submitter asked for (a misspelt "top_k" would return every voxel).
// Journal replay stays lenient, so accept records written before a field
// was retired still replay.
func decodeSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed job spec: "+err.Error())
		return
	}
	id, err := s.Submit(r.Context(), spec)
	if err != nil {
		var aerr *admitError
		if errors.As(err, &aerr) {
			if aerr.RetryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(aerr.RetryAfter))
			}
			writeJSON(w, aerr.Status, struct {
				Error string `json:"error"`
				ID    string `json:"id,omitempty"`
			}{aerr.Reason, aerr.ID})
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp := map[string]string{"id": id}
	// The job's trace outlives this request: point the client at the job
	// timeline rather than the middleware's request root.
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		if tid := j.traceID(); tid != "" {
			w.Header().Set(obs.HeaderTraceID, tid)
			resp["trace_id"] = tid
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]jobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, statusLocked(j))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	st := statusLocked(job)
	s.mu.Unlock()
	if st.TraceID != "" {
		w.Header().Set(obs.HeaderTraceID, st.TraceID)
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStats renders per-tenant accounting — the labeled /metrics
// series themselves, as one JSON document.
func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.tenantSnapshot()})
}

// resultScore is the wire form of one voxel score.
type resultScore struct {
	Voxel    int     `json:"voxel"`
	Accuracy float64 `json:"accuracy"`
}

// handleResult answers 200 with the scores of a done job. On a job not
// yet terminal it first waits, without the service mutex, until the job
// settles, the client goes away, the executors stop (drain or close) or
// resultHold passes; any job not done by then is a 409.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	if !job.State.Terminal() {
		if job.settled == nil {
			job.settled = make(chan struct{})
		}
		settled := job.settled
		s.mu.Unlock()
		hold := time.NewTimer(resultHold)
		select {
		case <-settled:
		case <-r.Context().Done():
		case <-s.execCtx.Done():
		case <-hold.C:
		}
		hold.Stop()
		s.mu.Lock()
	}
	if job.State != stateDone {
		st := job.State
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "job is "+string(st)+", not done")
		return
	}
	result := make([]core.VoxelScore, len(job.result))
	copy(result, job.result)
	s.mu.Unlock()

	scores := make([]resultScore, len(result))
	for i, sc := range result {
		scores[i] = resultScore{Voxel: sc.Voxel, Accuracy: sc.Accuracy}
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": r.PathValue("id"), "scores": scores})
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.Cancel(id)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": "canceling"})
	case errors.Is(err, errUnknownJob):
		writeError(w, http.StatusNotFound, "unknown job")
	default:
		writeError(w, http.StatusConflict, err.Error())
	}
}

func (s *Service) handleUpload(w http.ResponseWriter, r *http.Request) {
	select {
	case s.uploadSem <- struct{}{}:
		defer func() { <-s.uploadSem }()
	default:
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "too many concurrent uploads")
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("upload exceeds the %d-byte limit", maxUploadBytes))
			return
		}
		writeError(w, http.StatusBadRequest, "reading upload: "+err.Error())
		return
	}
	hash, err := s.store.Put(blob)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"hash": string(hash)})
}
