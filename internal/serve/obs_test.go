package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fcma/internal/obs"
	"fcma/internal/obs/trace"
)

// TestObservabilityEndToEnd runs one traced job over HTTP and checks every
// observability surface the service exposes: trace ids on the wire,
// one connected span timeline from HTTP to kernels, per-tenant stats,
// and the /metrics snapshot.
func TestObservabilityEndToEnd(t *testing.T) {
	tr := trace.New(0)
	s := newTestService(t, Options{ChunkVoxels: 8, Executors: 1, Trace: tr})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/datasets", tinyBlob(t))
	if code != http.StatusCreated {
		t.Fatalf("upload = %d %v", code, doc)
	}
	hash := doc["hash"].(string)

	spec, _ := json.Marshal(JobSpec{Dataset: hash, Tenant: "alice", Name: "obs"})
	code, hdr, doc := doJSON(t, "POST", ts.URL+"/api/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %v", code, doc)
	}
	id := doc["id"].(string)
	traceID, _ := doc["trace_id"].(string)
	if traceID == "" {
		t.Fatalf("submit response has no trace_id: %v", doc)
	}
	if got := hdr.Get(obs.HeaderTraceID); got != traceID {
		t.Fatalf("submit %s header = %q, body trace_id = %q", obs.HeaderTraceID, got, traceID)
	}
	if hdr.Get(obs.HeaderRequestID) == "" {
		t.Fatalf("submit response missing %s", obs.HeaderRequestID)
	}

	waitState(t, s, ts.URL, id, stateDone, 30*time.Second)

	// The status document keeps pointing at the same job timeline.
	code, hdr, doc = doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id, nil)
	if code != http.StatusOK || doc["trace_id"] != traceID {
		t.Fatalf("status = %d %v, want trace_id %q", code, doc, traceID)
	}
	if got := hdr.Get(obs.HeaderTraceID); got != traceID {
		t.Fatalf("status %s header = %q, want %q", obs.HeaderTraceID, got, traceID)
	}

	// One trace: the submit request root, the job lifecycle spans, the WAL
	// appends, and the kernel spans all share the job's trace id.
	names := make(map[string]bool)
	for _, sp := range tr.Drain() {
		if sp.Trace.String() == traceID {
			names[sp.Name] = true
		}
	}
	for _, want := range []string{
		"http POST /api/v1/jobs", "serve/job", "serve/admit", "serve/queue_wait",
		"serve/attempt", "serve/wal_append", "core/task", "core/svm",
	} {
		if !names[want] {
			t.Errorf("trace %s missing span %q (have %v)", traceID, want, names)
		}
	}

	// Per-tenant accounting over the stats endpoint.
	code, _, doc = doJSON(t, "GET", ts.URL+"/api/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats = %d %v", code, doc)
	}
	row, ok := doc["tenants"].(map[string]any)["alice"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing tenant alice: %v", doc)
	}
	if row["submitted"].(float64) != 1 || row["completed"].(float64) != 1 {
		t.Fatalf("alice stats = %v, want submitted=1 completed=1", row)
	}
	if row["compute_seconds"].(float64) <= 0 {
		t.Fatalf("alice compute_seconds = %v, want > 0", row["compute_seconds"])
	}

	// The metrics snapshot carries every family the scrape relies on: RED
	// series from the middleware, per-tenant labels, WAL latency, and
	// pipeline stage times.
	snap := s.MetricsSnapshot()
	alice := obs.L("tenant", "alice")
	for _, name := range []string{
		obs.SeriesName("http_requests_total",
			obs.L("route", "POST /api/v1/jobs"), obs.L("method", "POST"), obs.L("code", "2xx")),
		obs.SeriesName("serve_tenant_jobs_submitted_total", alice),
		obs.SeriesName("serve_tenant_jobs_completed_total", alice),
		obs.SeriesName("wal_records_total", obs.L("log", "serve")),
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s missing or zero", name)
		}
	}
	for _, name := range []string{
		obs.SeriesName("http_request_seconds",
			obs.L("route", "POST /api/v1/jobs"), obs.L("method", "POST")),
		obs.SeriesName("serve_tenant_job_seconds", alice),
		obs.SeriesName("serve_tenant_queue_wait_seconds", alice),
		obs.SeriesName("wal_fsync_seconds", obs.L("log", "serve")),
		"stage_core_svm_seconds",
	} {
		if h, ok := snap.Hists[name]; !ok || h.Count == 0 {
			t.Errorf("histogram %s missing or empty", name)
		}
	}
	if _, ok := snap.Gauges["serve_queue_depth"]; !ok {
		t.Errorf("gauge serve_queue_depth missing")
	}
}

// TestQueueWaitIsOneInterval cancels one job while it is queued, on a
// service that runs none, and runs one to done on the next service in the
// directory, which shares the registry (a row lives as long as its
// registry). It then holds the ledger to one instrument per fact: each
// queue wait is one serve/queue_wait span and one observation of the
// tenant's serve_tenant_queue_wait_seconds, timed by the same two clock
// readings, and the stats row reads the same handles /metrics renders.
func TestQueueWaitIsOneInterval(t *testing.T) {
	tr, reg, dir := trace.New(0), obs.NewRegistry(), t.TempDir()
	first := newTestService(t, Options{Dir: dir, Executors: -1, Trace: tr, Obs: reg})
	hash, err := first.store.Put(tinyBlob(t))
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Dataset: string(hash), Tenant: "alice"}
	canceled, err := first.Submit(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Cancel(canceled); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Options{Dir: dir, ChunkVoxels: 8, Executors: 1, Trace: tr, Obs: reg})
	if _, err := s.Submit(t.Context(), spec); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, s, 30*time.Second)

	var spans int
	var spanSeconds float64
	for _, sp := range tr.Drain() {
		if sp.Name == "serve/queue_wait" {
			spans++
			spanSeconds += time.Duration(sp.DurNS).Seconds()
		}
	}
	snap := s.MetricsSnapshot()
	var waits uint64
	for name, h := range snap.Hists {
		if strings.HasPrefix(name, "serve_tenant_queue_wait_seconds{") {
			waits += h.Count
		}
	}
	if spans != 2 || waits != uint64(spans) {
		t.Fatalf("%d serve/queue_wait spans and %d queue-wait observations, want one each per job (2)", spans, waits)
	}

	alice := obs.L("tenant", "alice")
	wait := snap.Hists[obs.SeriesName("serve_tenant_queue_wait_seconds", alice)]
	compute := snap.Hists[obs.SeriesName("serve_tenant_job_seconds", alice)]
	if wait.Sum != spanSeconds {
		t.Errorf("queue waits observed %gs, their spans lasted %gs", wait.Sum, spanSeconds)
	}
	row := s.tenantSnapshot()["alice"]
	want := tenantStats{
		Submitted:        snap.Counters[obs.SeriesName("serve_tenant_jobs_submitted_total", alice)],
		Completed:        snap.Counters[obs.SeriesName("serve_tenant_jobs_completed_total", alice)],
		Canceled:         snap.Counters[obs.SeriesName("serve_tenant_jobs_canceled_total", alice)],
		ComputeSeconds:   compute.Sum,
		QueueWaitSeconds: wait.Sum,
		EstimatedBytes:   int64(snap.Counters[obs.SeriesName("serve_tenant_estimated_bytes_total", alice)]),
	}
	if row != want || row.Submitted != 2 || row.Completed != 1 || row.Canceled != 1 || row.ComputeSeconds <= 0 {
		t.Fatalf("alice stats row %+v, want %+v from /metrics: submitted 2, completed 1, canceled 1", row, want)
	}
}

// TestPipelineRecordsOnServiceRegistry pins the one-registry design: a job's
// worker records straight into the service registry — no per-attempt
// registry merged in afterwards — and no machine-model series is emitted.
func TestPipelineRecordsOnServiceRegistry(t *testing.T) {
	s := newTestService(t, Options{ChunkVoxels: 8, Executors: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hash, err := s.store.Put(tinyBlob(t))
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(t.Context(), JobSpec{Dataset: string(hash)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, ts.URL, id, stateDone, 30*time.Second)

	live := s.Metrics().Snapshot()
	if got, want := live.Counters["core_tasks_total"], uint64(24/8); got != want {
		t.Errorf("live registry core_tasks_total = %d, want the job's %d chunks", got, want)
	}
	if h := live.Hists["stage_corr_fused_seconds"]; h.Count == 0 {
		t.Errorf("live registry has no stage_corr_fused_seconds observations")
	}
	snap := s.MetricsSnapshot()
	noModel := func(name string) {
		if strings.HasPrefix(name, "serve_model_") {
			t.Errorf("model series %s is still emitted", name)
		}
	}
	for name := range snap.Counters {
		noModel(name)
	}
	for name := range snap.Gauges {
		noModel(name)
	}
	for name := range snap.Hists {
		noModel(name)
	}
}

// TestStatsCountsRejections verifies admission refusals land in the
// tenant's rejected counter even though no job record is created.
func TestStatsCountsRejections(t *testing.T) {
	s := newTestService(t, Options{QueueCap: 1, Executors: 1})
	// Draining server rejects everything.
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(t.Context(), JobSpec{Synthetic: "face-scene", Tenant: "bob"})
	if err == nil {
		t.Fatal("submit on a draining server succeeded")
	}
	row := s.tenantSnapshot()["bob"]
	if row.Rejected != 1 || row.Submitted != 0 {
		t.Fatalf("bob stats = %+v, want rejected=1 submitted=0", row)
	}
	snap := s.MetricsSnapshot()
	name := obs.SeriesName("serve_tenant_jobs_rejected_total", obs.L("tenant", "bob"))
	if snap.Counters[name] != 1 {
		t.Fatalf("counter %s = %d, want 1", name, snap.Counters[name])
	}
}
