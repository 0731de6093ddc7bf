package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// Merging snapshots with disjoint instrument names must union them
// without cross-talk.
func TestSnapshotMergeDisjointNames(t *testing.T) {
	a := Snapshot{
		Counters: map[string]uint64{"a_total": 1},
		Gauges:   map[string]float64{"a_live": 1},
		Hists:    map[string]HistogramSnapshot{"a_lat": {Bounds: []float64{1}, Counts: []uint64{2, 0}, Sum: 0.5, Count: 2}},
	}
	b := Snapshot{
		Counters: map[string]uint64{"b_total": 7},
		Gauges:   map[string]float64{"b_live": 3},
		Hists:    map[string]HistogramSnapshot{"b_lat": {Bounds: []float64{1}, Counts: []uint64{0, 1}, Sum: 4, Count: 1}},
	}
	a.Merge(b)
	if a.Counters["a_total"] != 1 || a.Counters["b_total"] != 7 {
		t.Fatalf("counters = %v, want union", a.Counters)
	}
	if a.Gauges["a_live"] != 1 || a.Gauges["b_live"] != 3 {
		t.Fatalf("gauges = %v, want union", a.Gauges)
	}
	bl := a.Hists["b_lat"]
	if bl.Count != 1 || bl.Sum != 4 || len(bl.Counts) != 2 || bl.Counts[1] != 1 {
		t.Fatalf("adopted histogram = %+v", bl)
	}
	// The adopted histogram must be a copy, not an alias of b's slices.
	bl.Counts[1] = 99
	if b.Hists["b_lat"].Counts[1] != 1 {
		t.Fatal("merge aliased the source histogram's bucket slice")
	}
}

// Sub leaves what a registry counted after the base snapshot: counters
// and histograms less the base's, series new since the base whole, gauges
// and origin as the later snapshot has them; the base is not touched.
func TestSnapshotSubCountsSinceBase(t *testing.T) {
	r := NewRegistry()
	r.Counter("tasks_total").Add(3)
	r.Histogram("task_seconds", []float64{1}).Observe(0.5)
	r.Gauge("live").Set(1)
	base := r.Snapshot()
	r.Counter("tasks_total").Add(2)
	r.Counter("fresh_total").Inc()
	r.Histogram("task_seconds", []float64{1}).Observe(4)
	r.Gauge("live").Set(5)
	d := r.Snapshot()
	d.Sub(base)
	if d.Origin != base.Origin || d.Counters["tasks_total"] != 2 || d.Counters["fresh_total"] != 1 || d.Gauges["live"] != 5 {
		t.Fatalf("difference = %+v", d)
	}
	if h := d.Hists["task_seconds"]; h.Count != 1 || h.Sum != 4 || h.Counts[0] != 0 || h.Counts[1] != 1 {
		t.Fatalf("histogram difference = %+v, want the one 4 s observation", h)
	}
	if base.Counters["tasks_total"] != 3 || base.Hists["task_seconds"].Counts[0] != 1 {
		t.Fatalf("Sub changed its base: %+v", base)
	}
}

// Overlapping sessions count from the base the first took; a session
// opened after all earlier ones closed counts from the registry as it is.
func TestSessionsShareBaseWhileOpen(t *testing.T) {
	r := NewRegistry()
	r.Counter("tasks_total").Add(4)
	a, endA := r.Session()
	r.Counter("tasks_total").Inc()
	b, endB := r.Session()
	if a.Counters["tasks_total"] != 4 || b.Counters["tasks_total"] != 4 {
		t.Fatalf("overlapping sessions' bases count %d and %d, want both 4",
			a.Counters["tasks_total"], b.Counters["tasks_total"])
	}
	endA()
	endB()
	c, endC := r.Session()
	defer endC()
	if c.Counters["tasks_total"] != 5 {
		t.Fatalf("a fresh session's base counts %d, want 5", c.Counters["tasks_total"])
	}
}

// Histograms whose bucket layouts disagree still merge Sum/Count (so the
// cluster-wide totals stay meaningful) but leave s's buckets untouched.
func TestSnapshotMergeMismatchedBuckets(t *testing.T) {
	s := Snapshot{Hists: map[string]HistogramSnapshot{
		"lat": {Bounds: []float64{1, 2}, Counts: []uint64{1, 0, 0}, Sum: 0.5, Count: 1},
	}}
	o := Snapshot{Hists: map[string]HistogramSnapshot{
		"lat": {Bounds: []float64{5}, Counts: []uint64{3, 0}, Sum: 6, Count: 3},
	}}
	s.Merge(o)
	h := s.Hists["lat"]
	if h.Sum != 6.5 || h.Count != 4 {
		t.Fatalf("totals = %g/%d, want 6.5/4", h.Sum, h.Count)
	}
	if len(h.Counts) != 3 || h.Counts[0] != 1 || h.Counts[1] != 0 {
		t.Fatalf("buckets changed under mismatched bounds: %v", h.Counts)
	}
	if len(h.Bounds) != 2 {
		t.Fatalf("bounds changed under mismatch: %v", h.Bounds)
	}
}

// Merging an empty snapshot is a no-op; merging into a zero-value
// Snapshot must allocate its maps rather than panic.
func TestSnapshotMergeEmpty(t *testing.T) {
	s := Snapshot{
		Counters: map[string]uint64{"c": 2},
		Hists:    map[string]HistogramSnapshot{"h": {Bounds: []float64{1}, Counts: []uint64{1, 1}, Sum: 3, Count: 2}},
	}
	s.Merge(Snapshot{})
	if s.Counters["c"] != 2 || s.Hists["h"].Count != 2 {
		t.Fatalf("empty merge mutated state: %+v", s)
	}

	var zero Snapshot
	zero.Merge(s)
	if zero.Counters["c"] != 2 || zero.Gauges == nil || zero.Hists["h"].Sum != 3 {
		t.Fatalf("zero-value merge = %+v", zero)
	}
}

func TestHealthzAndBuildInfo(t *testing.T) {
	srv, err := ServeFunc("127.0.0.1:0", NewRegistry().Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var doc map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/healthz is not JSON: %v", err)
	}
	if doc["status"] != "ok" || doc["go_version"] == "" {
		t.Fatalf("/healthz doc = %v", doc)
	}

	mresp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "fcma_build_info{") ||
		!strings.Contains(string(body), `go_version="`) {
		t.Fatalf("/metrics missing build_info gauge:\n%s", body)
	}
}
