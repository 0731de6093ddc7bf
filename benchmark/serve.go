package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"fcma"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
	"fcma/internal/serve"
	"fcma/internal/wal"
)

// served is a running fcma-serve instance with the workload's datasets
// uploaded, and the HTTP client side of the closed loop.
type served struct {
	svc    *serve.Service
	srv    *httptest.Server
	client *http.Client
	dir    string
	inputs []input
	hashes []string // content hash of each uploaded input

	// What the clients saw, for the per-layer rows.
	rejected atomic.Int64 // 429/503 answers
	polls    atomic.Int64 // result GETs issued
}

// pollEvery is the client's result-poll interval.
const pollEvery = 5 * time.Millisecond

// opTimeout bounds one submit → result; an op past it counts as failed.
const opTimeout = 60 * time.Second

func setupServeSmallJobs(ctx context.Context, e *env) (*system, error) {
	s, genS, err := startServed(ctx, e, nil)
	if err != nil {
		return nil, err
	}
	return &system{
		clients:   e.p,
		inputs:    s.inputs,
		exact:     true, // jobs run at Workers: 1
		generateS: genS,
		op:        s.job,
		// The served ranking must be the library's own for the same data.
		reference: func(ctx context.Context, in int) ([]fcma.VoxelScore, error) {
			return fcma.SelectVoxelsContext(ctx, s.inputs[in].data, fcma.Config{Workers: 1})
		},
		shape:  taskShape{workers: 1, taskVoxels: chunkVoxels},
		layers: func(ctx context.Context, l *ledger) error { return serveLayers(ctx, l, e, s) },
		close:  s.close,
	}, nil
}

// chunkVoxels is the service's checkpoint granularity (its default).
const chunkVoxels = 64

// startServed is the workload's set-up: start the service on a fresh state
// directory behind an HTTP server, upload the four datasets, and run one
// warm-up job per dataset so the decoded-dataset cache is filled.
func startServed(ctx context.Context, e *env, tracer *trace.Tracer) (_ *served, generateS float64, err error) {
	dir, err := os.MkdirTemp(e.dir, "serve-")
	if err != nil {
		return nil, 0, err
	}
	s := &served{dir: dir}
	defer func() {
		if err != nil {
			_ = s.close()
		}
	}()
	s.svc, err = serve.New(serve.Options{
		Dir: dir, Executors: e.p, Workers: 1, ChunkVoxels: chunkVoxels, Trace: tracer,
		Log: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, 0, err
	}
	s.srv = httptest.NewServer(s.svc.Handler())
	s.client = s.srv.Client()
	s.client.Timeout = opTimeout

	// Two shapes, two datasets each: few epochs and a wider brain, more
	// epochs and a narrower one.
	for i, spec := range []fcma.Spec{
		{Voxels: e.pick(172, 48), Subjects: 3, EpochsPerSubject: e.pick(12, 4), SignalVoxels: e.pick(32, 6)},
		{Voxels: e.pick(126, 40), Subjects: 3, EpochsPerSubject: e.pick(18, 6), SignalVoxels: e.pick(24, 6)},
	} {
		spec.EpochLen, spec.RestLen, spec.Coupling = 12, 6, e.coupling(0.50)
		ins, genS, err := generate(e, int64(400+10*i), inputsPerWorkload/2, spec)
		if err != nil {
			return nil, 0, err
		}
		s.inputs = append(s.inputs, ins...)
		generateS += genS
	}
	for i, in := range s.inputs {
		hash, err := s.upload(ctx, in.data)
		if err != nil {
			return nil, 0, fmt.Errorf("uploading input %d: %w", i, err)
		}
		s.hashes = append(s.hashes, hash)
	}
	for i := range s.inputs {
		if _, err := s.job(ctx, i, nil); err != nil {
			return nil, 0, fmt.Errorf("warm-up job %d: %w", i, err)
		}
	}
	return s, generateS, nil
}

// close stops the HTTP server and the service and removes the state
// directory.
func (s *served) close() error {
	var err error
	if s.srv != nil {
		s.srv.Close()
	}
	if s.svc != nil {
		err = s.svc.Close()
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// upload posts a dataset in the upload framing (u64 little-endian length of
// the binary data section, the section, then the epoch text) and returns
// its content hash.
func (s *served) upload(ctx context.Context, d *fcma.Data) (string, error) {
	var data, epochs bytes.Buffer
	if err := d.Save(&data, &epochs); err != nil {
		return "", err
	}
	blob := binary.LittleEndian.AppendUint64(nil, uint64(data.Len()))
	blob = append(append(blob, data.Bytes()...), epochs.Bytes()...)
	var resp struct {
		Hash string `json:"hash"`
	}
	code, err := s.do(ctx, http.MethodPost, "/api/v1/datasets", blob, &resp)
	if err != nil {
		return "", err
	}
	if code != http.StatusCreated {
		return "", fmt.Errorf("upload answered %d", code)
	}
	return resp.Hash, nil
}

// do sends one request and decodes a JSON answer into out (when non-nil
// and the status is 2xx).
func (s *served) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// job is one op: POST the job, poll its result every pollEvery until 200,
// return the ranking. The three client-side spans go under op (nil: off).
func (s *served) job(ctx context.Context, i int, op *active) (outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	in := i % len(s.inputs)
	spec, err := json.Marshal(serve.JobSpec{Tenant: "bench", Name: fmt.Sprintf("op-%d", i), Dataset: s.hashes[in]})
	if err != nil {
		return outcome{}, err
	}
	var accepted struct {
		ID string `json:"id"`
	}
	sp := op.child("serve.submit")
	code, err := s.do(ctx, http.MethodPost, "/api/v1/jobs", spec, &accepted)
	sp.end()
	if err != nil {
		return outcome{}, err
	}
	if code != http.StatusAccepted {
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			s.rejected.Add(1)
		}
		return outcome{}, fmt.Errorf("submit answered %d", code)
	}

	var result struct {
		Scores []struct {
			Voxel    int     `json:"voxel"`
			Accuracy float64 `json:"accuracy"`
		} `json:"scores"`
	}
	accepted202 := time.Now()
	for {
		s.polls.Add(1)
		get := time.Now()
		code, err := s.do(ctx, http.MethodGet, "/api/v1/jobs/"+accepted.ID+"/result", nil, &result)
		if err != nil {
			return outcome{}, err
		}
		if code == http.StatusOK {
			// The wait ended when this GET began; the GET is the fetch.
			op.timed("serve.wait", accepted202, get.Sub(accepted202))
			op.timed("serve.fetch", get, time.Since(get))
			break
		}
		if code != http.StatusConflict {
			return outcome{}, fmt.Errorf("result of %s answered %d", accepted.ID, code)
		}
		select {
		case <-ctx.Done():
			return outcome{}, fmt.Errorf("job %s: %w", accepted.ID, ctx.Err())
		case <-time.After(pollEvery):
		}
	}
	scores := make([]fcma.VoxelScore, len(result.Scores))
	for k, sc := range result.Scores {
		scores[k] = fcma.VoxelScore{Voxel: sc.Voxel, Accuracy: sc.Accuracy}
	}
	return outcome{scores: scores}, nil
}

// sequentialJobs is how many jobs the one-client probes run.
const sequentialJobs = 8

// serveLayers fills the serve, wal and obs rows. The client-side rows come
// from the spans of the traced loop; the counter rows are the service's own
// registry, totalled since it started and divided by the jobs it finished;
// the ratio rows are one client issuing jobs back to back.
func serveLayers(ctx context.Context, l *ledger, e *env, s *served) error {
	l.set("serve.submit_p50_ms", median(l.rec.seconds("serve.submit"))*1e3)
	l.set("serve.wait_p50_ms", median(l.rec.seconds("serve.wait"))*1e3)
	l.set("serve.fetch_p50_ms", median(l.rec.seconds("serve.fetch"))*1e3)
	// The 75th percentile is the highest the 70 or so jobs of a traced run
	// leave ten samples beyond.
	l.set("serve.job_p75_s", percentile(l.ops, 75))

	snap := s.svc.MetricsSnapshot()
	jobs := float64(snap.Counters["serve_jobs_done_total"])
	walLog := obs.L("log", "serve")
	fsync := snap.Hists[obs.SeriesName("wal_fsync_seconds", walLog)]
	hits := float64(snap.Counters["serve_dataset_cache_hits_total"])
	misses := float64(snap.Counters["serve_dataset_cache_misses_total"])
	l.set("serve.rejected", float64(s.rejected.Load()))
	l.set("serve.polls_per_job", ratio(float64(s.polls.Load()), jobs))
	l.set("serve.dataset_cache_hit_ratio", ratio(hits, hits+misses))
	l.set("wal.fsyncs_per_job", ratio(float64(fsync.Count), jobs))
	l.set("wal.fsync_s_per_job", ratio(fsync.Sum, jobs))
	l.set("wal.bytes_per_job", ratio(float64(snap.Counters[obs.SeriesName("wal_appended_bytes_total", walLog)]), jobs))

	// One client, no contention: what a job costs through the service
	// against the same selection called directly.
	servedP50, err := sequentialP50(ctx, s)
	if err != nil {
		return err
	}
	var direct []float64
	for i := 0; i < sequentialJobs; i++ {
		start := time.Now()
		if _, err := fcma.SelectVoxelsContext(ctx, s.inputs[i%len(s.inputs)].data, fcma.Config{Workers: 1}); err != nil {
			return fmt.Errorf("direct selection: %w", err)
		}
		direct = append(direct, time.Since(start).Seconds())
	}
	l.set("serve.overhead_ratio", servedP50/median(direct))

	// The same jobs through a second instance with the program's tracer on.
	tracer := fcma.NewTracer()
	traced, _, err := startServed(ctx, e, tracer)
	if err != nil {
		return fmt.Errorf("traced service: %w", err)
	}
	tracer.Drain() // the warm-up jobs' spans
	tracedP50, err := sequentialP50(ctx, traced)
	spans := len(tracer.Drain())
	if cerr := traced.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("traced service: %w", err)
	}
	l.set("obs.trace_overhead_ratio", tracedP50/servedP50)
	l.set("obs.spans_per_op", float64(spans)/sequentialJobs)

	p50, err := walAppendP50(e.dir)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	l.set("wal.append_sync_p50_us", p50*1e6)
	return nil
}

// sequentialP50 is the median wall of sequentialJobs jobs issued one after
// the other by a single client.
func sequentialP50(ctx context.Context, s *served) (float64, error) {
	var walls []float64
	for i := 0; i < sequentialJobs; i++ {
		start := time.Now()
		if _, err := s.job(ctx, i, nil); err != nil {
			return 0, fmt.Errorf("sequential job %d: %w", i, err)
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	return median(walls), nil
}

// walAppendP50 is the device's floor under the service's journal: the median
// of 200 fsynced 1 KiB appends to a fresh log in the run's scratch directory.
func walAppendP50(dir string) (float64, error) {
	path := filepath.Join(dir, "probe.wal")
	log, err := wal.Open(nil, path, "BENCHWAL", 1<<20, func([]byte) error { return nil })
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	payload := make([]byte, 1<<10)
	var walls []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, err := log.Append(payload, true); err != nil {
			log.Abort()
			return 0, err
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	return median(walls), log.Close()
}
