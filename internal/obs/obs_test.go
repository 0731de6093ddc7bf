package obs

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fcma/internal/obs/trace"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if r.Counter("hits") != c {
		t.Fatal("second lookup returned a different counter")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter should stay 0")
	}
	g := r.Gauge("y")
	g.Set(1)
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge should stay 0")
	}
	h := r.Histogram("z", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should stay empty")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 560.5; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	want := []uint64{1, 2, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

// Begin's span and histogram time one interval: the histogram observes
// the span's own duration, with a tracer or without one.
func TestBegin(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r, tr := NewRegistry(), trace.New(0)
		ctx := context.Background()
		if traced {
			ctx = trace.NewContext(ctx, tr)
		}
		before := time.Now()
		ictx, iv := r.Begin(ctx, "corr/fused")
		if (iv.Span != nil) != traced || (ictx != ctx) != traced {
			t.Fatalf("traced=%v: Begin returned span %v", traced, iv.Span)
		}
		iv.End()
		elapsed := time.Since(before)
		h := r.Histogram("stage_corr_fused_seconds", nil)
		if h.Count() != 1 || h.Sum() < 0 || h.Sum() > elapsed.Seconds() {
			t.Fatalf("traced=%v: histogram count=%d sum=%g, want 1 observation within %v", traced, h.Count(), h.Sum(), elapsed)
		}
		if spans := tr.Drain(); traced && (len(spans) != 1 || spans[0].Name != "corr/fused" || time.Duration(spans[0].DurNS).Seconds() != h.Sum()) {
			t.Fatalf("spans %+v, want one corr/fused span of the observed %gs", spans, h.Sum())
		}
	}
}

// Begin allocates nothing when ctx carries no tracer, whether the registry
// is nil or warm, or the interval is timed on a labeled series resolved
// once (a tenant's queue wait): every stage and voxel of an untraced run,
// and every job of the service, calls it.
func TestBeginZeroAllocsUntraced(t *testing.T) {
	ctx := context.Background()
	warm := NewRegistry()
	warm.Begin(ctx, "svm/cv")
	labeled := warm.Histogram("serve_tenant_queue_wait_seconds", nil, L("tenant", "alice"))
	for _, row := range []struct {
		name  string
		begin func() (context.Context, Interval)
	}{
		{"nil registry", func() (context.Context, Interval) { return (*Registry)(nil).Begin(ctx, "svm/cv") }},
		{"warm registry", func() (context.Context, Interval) { return warm.Begin(ctx, "svm/cv") }},
		{"labeled histogram", func() (context.Context, Interval) { return labeled.Begin(ctx, "serve/queue_wait") }},
	} {
		if n := testing.AllocsPerRun(100, func() {
			_, iv := row.begin()
			iv.Span.SetInt("folds", 6)
			iv.End()
		}); n != 0 {
			t.Fatalf("Begin on the %s allocates %v per interval", row.name, n)
		}
	}
	if labeled.Count() == 0 {
		t.Fatal("the labeled interval observed nothing")
	}
}

func TestSnapshotMergeAndGob(t *testing.T) {
	a := NewRegistry()
	a.Counter("tasks").Add(3)
	a.Gauge("live").Set(1)
	a.Histogram("lat", []float64{1, 2}).Observe(1.5)

	b := NewRegistry()
	b.Counter("tasks").Add(4)
	b.Counter("extra").Add(1)
	b.Gauge("live").Set(2)
	b.Histogram("lat", []float64{1, 2}).Observe(0.5)

	// Round-trip b's snapshot through gob, as the cluster wire does.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var bs Snapshot
	if err := gob.NewDecoder(&buf).Decode(&bs); err != nil {
		t.Fatal(err)
	}

	merged := a.Snapshot()
	merged.Merge(bs)
	if merged.Counters["tasks"] != 7 {
		t.Fatalf("merged tasks = %d, want 7", merged.Counters["tasks"])
	}
	if merged.Counters["extra"] != 1 {
		t.Fatalf("merged extra = %d, want 1", merged.Counters["extra"])
	}
	if merged.Gauges["live"] != 2 {
		t.Fatalf("merged gauge = %g, want 2 (last wins)", merged.Gauges["live"])
	}
	lat := merged.Hists["lat"]
	if lat.Count != 2 || lat.Sum != 2 {
		t.Fatalf("merged hist count=%d sum=%g, want 2/2", lat.Count, lat.Sum)
	}
	if lat.Counts[0] != 1 || lat.Counts[1] != 1 {
		t.Fatalf("merged buckets = %v", lat.Counts)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("fcma_tasks_total").Add(2)
	r.Gauge("fcma_workers_live").Set(3)
	r.Histogram("fcma_lat_seconds", []float64{1, 10}).Observe(5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE fcma_tasks_total counter\nfcma_tasks_total 2\n",
		"# TYPE fcma_workers_live gauge\nfcma_workers_live 3\n",
		"# TYPE fcma_lat_seconds histogram\n",
		`fcma_lat_seconds_bucket{le="1"} 0`,
		`fcma_lat_seconds_bucket{le="10"} 1`,
		`fcma_lat_seconds_bucket{le="+Inf"} 1`,
		"fcma_lat_seconds_sum 5",
		"fcma_lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Add(9)
	srv, err := ServeFunc("127.0.0.1:0", r.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, "served_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%s", body)
	}
}

func TestProgressReporter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("done")
	c.Add(50)
	var mu sync.Mutex
	var buf bytes.Buffer
	var once sync.Once
	ticked := make(chan struct{}) // closed when the ticker's first line lands
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		once.Do(func() { close(ticked) })
		return buf.Write(p)
	})
	stop := StartProgress(ProgressOptions{
		W: w, Label: "test", Unit: "voxels", Total: 100, Counter: c,
		Interval: 5 * time.Millisecond,
	})
	select {
	case <-ticked:
	case <-time.After(10 * time.Second):
		t.Fatal("no progress line within 10s of a 5ms interval")
	}
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "50/100 voxels") || !strings.Contains(out, "voxels/sec") {
		t.Fatalf("progress output unexpected:\n%s", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	_ = fmt.Sprint(c.Value())
}

func BenchmarkNilCounterAdd(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
