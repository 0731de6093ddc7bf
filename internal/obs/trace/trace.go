// Package trace is the pipeline's distributed-tracing substrate: the
// per-stage timeline view the paper reads off vTune (§4, Figs. 6–9),
// rebuilt as an in-process span tracer that answers the questions the
// aggregate counters of package obs cannot — "why was rank 3's task 812
// slow?", "which goroutine sat idle during the SVM stage?".
//
// A Span is one timed section (a cluster task, a pipeline stage, a kernel
// block, one voxel's cross-validation) carrying a TraceID shared by the
// whole run, its own SpanID, its parent's SpanID, and key=value
// attributes. Span contexts are small value types, so the cluster master
// can ship one inside a task message and a worker can parent its stage
// spans under it — the merged timeline then renders master task spans and
// worker stage spans as one tree.
//
// The design follows obs's nil-is-off discipline: a nil *Tracer hands out
// nil active spans whose methods are no-ops, so the kernel hot path pays
// one branch and zero allocations when tracing is disabled. When enabled,
// completed spans are appended to a small set of mutex-sharded buffers
// (the shard is picked from the span id, so concurrent worker goroutines
// rarely contend) and drained wholesale for export.
//
// Export is Chrome trace-event JSON (WriteChrome): one pid per cluster
// rank, one tid per worker goroutine, loadable in chrome://tracing or
// Perfetto. The same event stream also feeds the flight recorder (see
// Flight): a bounded ring of the most recent span and log events that is
// dumped on panic, SIGQUIT, or a fatal cluster error.
package trace

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one analysis run; every span of the run shares it,
// across ranks.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the id in the fixed-width hex form used in exports.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// String renders the id in the fixed-width hex form used in exports.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// SpanContext is the portable reference to a live span: enough to parent
// remote work under it. It is a plain value so the cluster layer can gob
// it inside a task message.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context refers to a real span.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// Attr is one key=value annotation on a span. Values are strings so spans
// gob/JSON-encode without reflection surprises.
type Attr struct {
	Key   string
	Value string
}

// Span is one completed timed section. All fields are exported so span
// buffers ship across the cluster wire with encoding/gob.
type Span struct {
	// Name labels the section, conventionally "layer/stage" ("corr/merged",
	// "cluster/task").
	Name string
	// Trace is the run id; ID this span; Parent the enclosing span (0 for
	// roots).
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	// PID is the cluster rank that recorded the span (one process lane per
	// rank in the merged timeline); TID the worker-goroutine lane within it.
	PID int
	TID int
	// StartNS is the wall-clock start in nanoseconds since the Unix epoch;
	// DurNS the duration.
	StartNS int64
	DurNS   int64
	// Attrs are the span's key=value annotations.
	Attrs []Attr
}

// Context returns the span's portable reference.
func (s *Span) Context() SpanContext { return SpanContext{Trace: s.Trace, Span: s.ID} }

// Attr returns the value of the named attribute ("" when absent).
func (s *Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// nShards is the number of completed-span buffers a tracer stripes over.
// Spans land in a shard picked from their id, so goroutines ending spans
// concurrently almost never touch the same mutex.
const nShards = 16

type shard struct {
	mu    sync.Mutex
	spans []Span
}

// Tracer records spans for one process (one cluster rank). The zero value
// is not usable; call New. A nil *Tracer is the off switch: it hands out
// nil active spans and allocates nothing.
type Tracer struct {
	pid    atomic.Int64
	trace  TraceID
	tids   atomic.Int64
	shards [nShards]shard
}

// New returns a tracer for the given rank with a fresh random trace id.
func New(pid int) *Tracer {
	t := &Tracer{trace: TraceID(nonzero64())}
	t.pid.Store(int64(pid))
	return t
}

// nonzero64 draws a random non-zero 64-bit id.
func nonzero64() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

// TraceID returns the tracer's run id; 0 on a nil tracer.
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return 0
	}
	return t.trace
}

// SetPID re-stamps the rank recorded on subsequently started spans — a
// cluster worker learns its rank only once connected (and again after a
// rejoin). Safe on a nil tracer.
func (t *Tracer) SetPID(pid int) {
	if t == nil {
		return
	}
	t.pid.Store(int64(pid))
}

// nextTID allocates a fresh worker-goroutine lane; 0 on a nil tracer
// (lane 0 is the caller's own goroutine).
func (t *Tracer) nextTID() int {
	if t == nil {
		return 0
	}
	return int(t.tids.Add(1))
}

// Active is a started, not yet ended span. A nil *Active (from a disabled
// tracer) is valid: every method is a no-op and Context returns the zero
// context.
type Active struct {
	t    *Tracer
	t0   time.Time // the start, with its monotonic reading
	span Span
}

// start begins a span under the given parent on the given goroutine lane.
// A zero parent starts a new root under the tracer's own trace id.
func (t *Tracer) start(name string, parent SpanContext, tid int) *Active {
	if t == nil {
		return nil
	}
	tr := parent.Trace
	if tr == 0 {
		tr = t.trace
	}
	t0 := time.Now()
	return &Active{t: t, t0: t0, span: Span{
		Name:    name,
		Trace:   tr,
		ID:      SpanID(nonzero64()),
		Parent:  parent.Span,
		PID:     int(t.pid.Load()),
		TID:     tid,
		StartNS: t0.UnixNano(),
	}}
}

// Start begins a span on lane 0 under parent. A zero parent starts a root
// under the tracer's own trace id: the cluster master's run span, which
// its task spans start under. Safe on a nil tracer (returns nil).
func (t *Tracer) Start(name string, parent SpanContext) *Active {
	return t.start(name, parent, 0)
}

// StartTrace begins a root span under a fresh random trace id instead of
// the tracer's ambient run trace — how a server gives each request/job
// its own timeline inside one shared tracer. Children parented under the
// returned span (via WithRemoteParent + StartSpan) inherit the new id.
// Safe on a nil tracer (returns nil).
func (t *Tracer) StartTrace(name string) *Active {
	if t == nil {
		return nil
	}
	return t.start(name, SpanContext{Trace: TraceID(nonzero64())}, 0)
}

// Context returns the portable reference to the active span (zero when
// the span is nil).
func (a *Active) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return a.span.Context()
}

// SetAttr annotates the span. Safe on a nil span.
func (a *Active) SetAttr(key, value string) {
	if a == nil {
		return
	}
	a.span.Attrs = append(a.span.Attrs, Attr{Key: key, Value: value})
}

// SetInt annotates the span with an integer value. Safe on a nil span.
func (a *Active) SetInt(key string, v int) {
	if a == nil {
		return
	}
	a.SetAttr(key, fmt.Sprintf("%d", v))
}

// End completes the span, appending it to the tracer's buffer and noting
// it in the process flight recorder, and returns its duration. Safe on a
// nil span (returns 0); ending twice records twice (don't).
func (a *Active) End() time.Duration {
	if a == nil {
		return 0
	}
	d := time.Since(a.t0)
	a.span.DurNS = int64(d)
	sh := &a.t.shards[uint64(a.span.ID)%nShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, a.span)
	sh.mu.Unlock()
	DefaultFlight().Note("span", fmt.Sprintf("%s pid=%d tid=%d dur=%s",
		a.span.Name, a.span.PID, a.span.TID, d))
	return d
}

// Drain removes and returns every completed span buffered so far. The
// cluster worker drains after each task to ship its buffer to the master;
// single-node runs drain once at exit. Safe on a nil tracer (nil slice).
func (t *Tracer) Drain() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.spans = nil
		sh.mu.Unlock()
	}
	return out
}

// Len reports how many completed spans are buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.spans)
		sh.mu.Unlock()
	}
	return n
}

// Absorb appends externally recorded spans (e.g. drained from in-process
// worker tracers) into this tracer's buffer so one Drain covers the whole
// run. Safe on a nil tracer (drops the spans).
func (t *Tracer) Absorb(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	sh := &t.shards[0]
	sh.mu.Lock()
	sh.spans = append(sh.spans, spans...)
	sh.mu.Unlock()
}

// ctxState is the tracing state carried through a context.Context: the
// tracer, the span the next child should parent under, and the goroutine
// lane to record on.
type ctxState struct {
	t      *Tracer
	parent SpanContext
	tid    int
}

type ctxKey struct{}

// NewContext returns ctx carrying the tracer, with no parent span and
// lane 0. A nil tracer returns ctx unchanged (tracing stays off).
func NewContext(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxState{t: t})
}

// WithRemoteParent returns ctx carrying the tracer with spans parented
// under a span context received from elsewhere (the master's task span on
// the cluster wire). A nil tracer returns ctx unchanged.
func WithRemoteParent(ctx context.Context, t *Tracer, parent SpanContext) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxState{t: t, parent: parent})
}

// FromContext returns the tracer carried by ctx, or nil.
func FromContext(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	st, _ := ctx.Value(ctxKey{}).(ctxState)
	return st.t
}

// StartSpan begins a span named name as a child of ctx's current span, on
// ctx's goroutine lane, and returns a derived context under which further
// spans nest inside it. When ctx carries no tracer it returns (ctx, nil)
// without allocating — the disabled-path cost on kernel hot paths is one
// context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Active) {
	if ctx == nil {
		return ctx, nil
	}
	st, ok := ctx.Value(ctxKey{}).(ctxState)
	if !ok || st.t == nil {
		return ctx, nil
	}
	a := st.t.start(name, st.parent, st.tid)
	return context.WithValue(ctx, ctxKey{}, ctxState{t: st.t, parent: a.Context(), tid: st.tid}), a
}

// StartWorkerSpan is StartSpan on a fresh goroutine lane: the parallel
// drivers call it once per spawned goroutine so each goroutine's spans
// render on their own timeline row (one tid per worker goroutine).
func StartWorkerSpan(ctx context.Context, name string) (context.Context, *Active) {
	if ctx == nil {
		return ctx, nil
	}
	st, ok := ctx.Value(ctxKey{}).(ctxState)
	if !ok || st.t == nil {
		return ctx, nil
	}
	tid := st.t.nextTID()
	a := st.t.start(name, st.parent, tid)
	return context.WithValue(ctx, ctxKey{}, ctxState{t: st.t, parent: a.Context(), tid: tid}), a
}
