package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSpanLifecycleAndDrain(t *testing.T) {
	tr := New(3)
	root := tr.Start("cluster/run", SpanContext{})
	root.SetInt("voxels", 1200)
	child := tr.Start("cluster/task", root.Context())
	child.End()
	root.End()

	spans := tr.Drain()
	if len(spans) != 2 {
		t.Fatalf("drained %d spans, want 2", len(spans))
	}
	if tr.Len() != 0 {
		t.Fatalf("tracer still holds %d spans after drain", tr.Len())
	}
	byName := make(map[string]Span)
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, c := byName["cluster/run"], byName["cluster/task"]
	if r.Trace != tr.TraceID() || c.Trace != tr.TraceID() {
		t.Fatalf("spans carry trace %v/%v, tracer %v", r.Trace, c.Trace, tr.TraceID())
	}
	if c.Parent != r.ID {
		t.Fatalf("child parent %v, want root id %v", c.Parent, r.ID)
	}
	if r.PID != 3 || c.PID != 3 {
		t.Fatalf("pids %d/%d, want 3", r.PID, c.PID)
	}
	if r.Attr("voxels") != "1200" {
		t.Fatalf("root attrs = %v", r.Attrs)
	}
	if r.DurNS < 0 || c.StartNS < r.StartNS {
		t.Fatalf("timestamps inverted: root %d+%d child %d", r.StartNS, r.DurNS, c.StartNS)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", SpanContext{})
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.End()
	if sp.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	if got := tr.Drain(); got != nil {
		t.Fatalf("nil tracer drained %v", got)
	}
	tr.SetPID(7)
	tr.Absorb([]Span{{Name: "y"}})
	if tr.TraceID() != 0 || tr.nextTID() != 0 || tr.Len() != 0 {
		t.Fatal("nil tracer leaked state")
	}
}

func TestContextPropagation(t *testing.T) {
	tr := New(0)
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext lost the tracer")
	}
	ctx, outer := StartSpan(ctx, "outer")
	_, inner := StartSpan(ctx, "inner")
	inner.End()
	outer.End()
	spans := tr.Drain()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	var in, out Span
	for _, s := range spans {
		if s.Name == "inner" {
			in = s
		} else {
			out = s
		}
	}
	if in.Parent != out.ID {
		t.Fatalf("inner parent %v, want outer %v", in.Parent, out.ID)
	}
	if in.TID != out.TID {
		t.Fatalf("same-goroutine spans on different lanes %d/%d", in.TID, out.TID)
	}
}

func TestWorkerSpansGetFreshLanes(t *testing.T) {
	tr := New(0)
	ctx := NewContext(context.Background(), tr)
	ctx, stage := StartSpan(ctx, "stage")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx, w := StartWorkerSpan(ctx, "worker")
			_, item := StartSpan(wctx, "item")
			item.End()
			w.End()
		}()
	}
	wg.Wait()
	stage.End()
	spans := tr.Drain()
	lanes := make(map[int]bool)
	items := 0
	for _, s := range spans {
		switch s.Name {
		case "worker":
			lanes[s.TID] = true
			if s.Parent != stage.span.ID {
				t.Fatalf("worker span parent %v, want stage %v", s.Parent, stage.span.ID)
			}
		case "item":
			items++
			if s.TID == 0 {
				t.Fatal("item span recorded on lane 0, want its goroutine's lane")
			}
		}
	}
	if len(lanes) != 4 {
		t.Fatalf("4 worker goroutines got %d distinct lanes", len(lanes))
	}
	if items != 4 {
		t.Fatalf("got %d item spans", items)
	}
}

func TestRemoteParent(t *testing.T) {
	master := New(0)
	task := master.Start("cluster/task", SpanContext{})
	worker := New(2)
	ctx := WithRemoteParent(context.Background(), worker, task.Context())
	_, sp := StartSpan(ctx, "worker/task")
	sp.End()
	task.End()
	ws := worker.Drain()[0]
	if ws.Trace != master.TraceID() {
		t.Fatalf("worker span trace %v, want master's %v", ws.Trace, master.TraceID())
	}
	if ws.Parent != task.span.ID {
		t.Fatalf("worker span parent %v, want master task %v", ws.Parent, task.span.ID)
	}
	if ws.PID != 2 {
		t.Fatalf("worker span pid %d, want 2", ws.PID)
	}
}

// StartTrace gives each request/job its own trace id inside one shared
// tracer, and children parented under it inherit that id.
func TestStartTraceFreshID(t *testing.T) {
	tr := New(0)
	a := tr.StartTrace("http GET /jobs")
	b := tr.StartTrace("http GET /jobs")
	if a.span.Trace == b.span.Trace {
		t.Fatalf("two StartTrace roots share trace id %v", a.span.Trace)
	}
	if a.span.Trace == tr.TraceID() || a.span.Trace == 0 {
		t.Fatalf("StartTrace id %v not fresh (ambient %v)", a.span.Trace, tr.TraceID())
	}
	if a.span.Parent != 0 {
		t.Fatalf("StartTrace span has parent %v, want root", a.span.Parent)
	}
	ctx := WithRemoteParent(context.Background(), tr, a.Context())
	_, child := StartSpan(ctx, "serve/job")
	child.End()
	b.End()
	a.End()
	for _, s := range tr.Drain() {
		if s.Name == "serve/job" {
			if s.Trace != a.span.Trace || s.Parent != a.span.ID {
				t.Fatalf("child span %+v not under StartTrace root %v/%v", s, a.span.Trace, a.span.ID)
			}
			return
		}
	}
	t.Fatal("child span not drained")
}

// A nil tracer's StartTrace stays a no-op.
func TestStartTraceNil(t *testing.T) {
	var tr *Tracer
	a := tr.StartTrace("x")
	a.SetAttr("k", "v")
	a.End()
	if a != nil {
		t.Fatal("nil tracer returned non-nil active span")
	}
}

// The disabled path must not allocate: kernels call StartSpan once per
// block inside hot loops.
func TestDisabledStartSpanZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c, sp := StartSpan(ctx, "blas/block")
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan allocates %v times per call", allocs)
	}
	var tr *Tracer
	allocs = testing.AllocsPerRun(100, func() {
		sp := tr.Start("x", SpanContext{})
		sp.SetAttr("k", "v")
		sp.SetInt("n", 12345)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocates %v times per span", allocs)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := New(1)
	root := tr.Start("cluster/task", SpanContext{})
	root.SetInt("v0", 120)
	child := tr.Start("corr/merged", root.Context())
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Drain()); err != nil {
		t.Fatal(err)
	}
	// The file must be plain JSON with the expected structure.
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	if !strings.Contains(buf.String(), "process_name") {
		t.Fatal("no process_name metadata event")
	}

	spans, err := ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("round-tripped %d spans, want 2", len(spans))
	}
	byName := make(map[string]Span)
	for _, s := range spans {
		byName[s.Name] = s
	}
	rt, ct := byName["cluster/task"], byName["corr/merged"]
	if ct.Parent != rt.ID || ct.Trace != rt.Trace {
		t.Fatalf("ids lost in round trip: child %+v root %+v", ct, rt)
	}
	if rt.Attr("v0") != "120" {
		t.Fatalf("attr lost: %v", rt.Attrs)
	}
	if rt.PID != 1 {
		t.Fatalf("pid lost: %d", rt.PID)
	}
}

func TestFlightRingEviction(t *testing.T) {
	f := newFlight(4)
	for i := 0; i < 10; i++ {
		f.Note("log", strings.Repeat("x", i+1))
	}
	ev := f.Events()
	if len(ev) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ev))
	}
	// Oldest first: lengths 7,8,9,10.
	for i, e := range ev {
		if len(e.Text) != 7+i {
			t.Fatalf("event %d text %q, want length %d", i, e.Text, 7+i)
		}
	}
	var buf bytes.Buffer
	f.Dump(&buf, "test")
	if !strings.Contains(buf.String(), "flight recorder dump: test (4 events)") {
		t.Fatalf("dump header missing: %s", buf.String())
	}
}

func TestCrashDumpArming(t *testing.T) {
	defer ArmCrashDump(nil)
	DefaultFlight().Note("log", "about to fail")

	// Disarmed: no output anywhere, no panic.
	DumpNow("ignored")

	var buf bytes.Buffer
	ArmCrashDump(&buf)
	DumpNow("task budget exhausted")
	out := buf.String()
	if !strings.Contains(out, "task budget exhausted") || !strings.Contains(out, "about to fail") {
		t.Fatalf("armed dump missing content: %s", out)
	}
}

func TestNilFlight(t *testing.T) {
	var f *Flight
	f.Note("log", "x")
	if f.Events() != nil || f.Len() != 0 {
		t.Fatal("nil flight leaked state")
	}
}
