package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fcma"
	"fcma/internal/obs"
)

// getResult is what one result request saw.
type getResult struct {
	code int
	doc  map[string]any
	err  error
}

// asyncGet issues a GET on its own goroutine and delivers the decoded
// answer on the returned channel.
func asyncGet(url string) <-chan getResult {
	out := make(chan getResult, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			out <- getResult{err: err}
			return
		}
		defer resp.Body.Close()
		var doc map[string]any
		err = json.NewDecoder(resp.Body).Decode(&doc)
		out <- getResult{code: resp.StatusCode, doc: doc, err: err}
	}()
	return out
}

// waitForWaiter returns once a result request waits on job id (it made
// the job's settled channel and let go of the service mutex).
func waitForWaiter(t *testing.T, s *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		waiting := s.jobs[id].settled != nil
		s.mu.Unlock()
		if waiting {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no result request ever waited on %s", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// releaseWithin bounds how soon after its release a waiting request must
// answer: half the hold, so a wait that only the hold ended (it began
// before the release) cannot pass for a released one.
const releaseWithin = resultHold / 2

// awaitReleased returns the waiting request's answer, failing if it did
// not come within releaseWithin of the release.
func awaitReleased(t *testing.T, got <-chan getResult, what string) getResult {
	t.Helper()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("after %s: %v", what, r.err)
		}
		return r
	case <-time.After(releaseWithin):
		t.Fatalf("%s did not release the waiting result request", what)
		return getResult{}
	}
}

// TestResultWaitsForJob proves a result request issued right after the
// 202 answers 200 with the job's scores once the job settles: the client
// needs one request, not a poll loop.
func TestResultWaitsForJob(t *testing.T) {
	s := newTestService(t, Options{ChunkVoxels: 8, Executors: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/datasets", tinyBlob(t))
	if code != http.StatusCreated {
		t.Fatalf("upload = %d %v", code, doc)
	}
	spec, _ := json.Marshal(JobSpec{Dataset: doc["hash"].(string)})
	code, _, doc = doJSON(t, "POST", ts.URL+"/api/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %v", code, doc)
	}
	id := doc["id"].(string)
	code, _, doc = doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("first result request = %d %v, want 200", code, doc)
	}
	if n := len(doc["scores"].([]any)); n != 24 {
		t.Fatalf("result has %d scores, want 24", n)
	}
	route := obs.L("route", "GET /api/v1/jobs/{id}/result")
	snap := s.MetricsSnapshot()
	for class, want := range map[string]uint64{"2xx": 1, "4xx": 0} {
		name := obs.SeriesName("http_requests_total", route, obs.L("method", "GET"), obs.L("code", class))
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestDrainAndCloseReleaseResultWait proves a result request waiting on a
// job that will not settle (no executors) is released by Drain and by
// Close with 409 naming the state, so a daemon's Drain → http Shutdown
// never waits on one.
func TestDrainAndCloseReleaseResultWait(t *testing.T) {
	for _, stop := range []struct {
		name string
		do   func(*Service) error
	}{
		{"drain", func(s *Service) error {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return s.Drain(ctx)
		}},
		{"close", (*Service).Close},
	} {
		t.Run(stop.name, func(t *testing.T) {
			s, err := New(Options{Dir: t.TempDir(), Executors: -1})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			id, err := s.Submit(context.Background(), JobSpec{Synthetic: "face-scene", Scale: 0.001})
			if err != nil {
				t.Fatal(err)
			}
			got := asyncGet(ts.URL + "/api/v1/jobs/" + id + "/result")
			waitForWaiter(t, s, id)
			if err := stop.do(s); err != nil {
				t.Fatal(err)
			}
			r := awaitReleased(t, got, stop.name)
			if r.code != http.StatusConflict || !strings.Contains(r.doc["error"].(string), string(stateAccepted)) {
				t.Fatalf("waiting result after %s = %d %v, want 409 accepted", stop.name, r.code, r.doc)
			}
		})
	}
}

// TestResultWaitEndsOnDisconnect proves a client that goes away ends its
// waiting handler instead of leaving it parked for the hold.
func TestResultWaitEndsOnDisconnect(t *testing.T) {
	s := newTestService(t, Options{Executors: -1})
	returned := make(chan struct{})
	api := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/result") {
			close(returned)
		}
	}))
	defer ts.Close()
	id, err := s.Submit(context.Background(), JobSpec{Synthetic: "face-scene", Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/v1/jobs/"+id+"/result", nil)
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitForWaiter(t, s, id)
	cancel()
	<-clientDone
	select {
	case <-returned:
	case <-time.After(releaseWithin):
		t.Fatal("the handler kept waiting after its client disconnected")
	}
}

// TestSharedStackMatchesSelectVoxels runs jobs on two executors over one
// cached epoch stack at once (run it under -race) and holds every result
// to fcma.SelectVoxelsContext on the same data, bit for bit.
func TestSharedStackMatchesSelectVoxels(t *testing.T) {
	blob := tinyBlob(t)
	want, err := fcma.SelectVoxelsContext(context.Background(), loadBlob(t, blob), fcma.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	s := newTestService(t, Options{ChunkVoxels: 4, Executors: 2, Workers: 1})
	hash, err := s.store.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Build and cache the stack first, so every job below runs on it.
	if _, err := s.store.Get(context.Background(), JobSpec{}, hash); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const jobs = 4
	ids := make([]string, jobs)
	for i := range ids {
		if ids[i], err = s.Submit(context.Background(), JobSpec{Dataset: string(hash)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		waitState(t, s, ts.URL, id, stateDone, 30*time.Second)
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var got struct{ Scores []resultScore }
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: result = %d (decode: %v)", id, resp.StatusCode, err)
		}
		if len(got.Scores) != len(want) {
			t.Fatalf("%s ranked %d voxels, fcma.SelectVoxelsContext %d", id, len(got.Scores), len(want))
		}
		for i, sc := range got.Scores {
			if sc.Voxel != want[i].Voxel || sc.Accuracy != want[i].Accuracy {
				t.Fatalf("%s rank %d: service %+v, fcma.SelectVoxelsContext %+v", id, i, sc, want[i])
			}
		}
	}
	if hits := s.Metrics().Counter("serve_dataset_cache_hits_total").Value(); hits < jobs {
		t.Errorf("cache hits = %d, want every one of the %d jobs to run on the cached stack", hits, jobs)
	}
	if misses := s.Metrics().Counter("serve_dataset_cache_misses_total").Value(); misses != 1 {
		t.Errorf("cache misses = %d, want the one build before the jobs", misses)
	}
}
