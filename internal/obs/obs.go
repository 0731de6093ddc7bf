// Package obs is the pipeline's observability substrate: a lightweight,
// allocation-frugal metrics layer the paper's optimization story (§4,
// Figs. 6–9) needed from vTune — per-stage timing, throughput counters,
// and latency distributions — rebuilt as in-process instruments.
//
// The design optimizes the hot path: instruments are resolved from a
// Registry by name once, outside loops, and then updated with single
// atomic operations. Every instrument method is nil-receiver-safe, so
// uninstrumented runs (a nil *Registry hands out nil instruments) pay one
// predictable branch per update and allocate nothing.
//
// Registries can be snapshotted into a wire-friendly value (see Snapshot)
// and merged, which is how cluster workers ship their counters to the
// master for a run-wide view, rendered as Prometheus text by
// WritePrometheus or served live by Serve alongside net/http/pprof.
package obs

import (
	"context"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fcma/internal/obs/trace"
)

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by d. Safe on a nil receiver (no-op).
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d (d may be negative). Safe on a nil receiver.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value; 0 on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics): bucket i counts observations ≤ Buckets[i], with one
// overflow bucket beyond the last bound. Buckets are fixed at creation so
// observation is a binary search plus two atomic adds — no allocation.
type Histogram struct {
	bounds  []float64 // sorted upper bounds
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// defaultLatencyBuckets spans 100µs to ~100s exponentially, wide enough
// for both a per-epoch kernel block and a full cluster task.
var defaultLatencyBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations; 0 on a nil receiver.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values; 0 on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry is a named collection of instruments. The zero value is not
// usable; call NewRegistry. A nil *Registry is a valid "off switch": it
// hands out nil instruments whose methods are no-ops.
type Registry struct {
	mu       sync.RWMutex
	origin   uint64 // random, non-zero; stamped on every Snapshot
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	stages   map[string]*Histogram // Begin's histograms, by interval name

	// Reporting sessions (Session): how many are open, and the snapshot
	// the open ones count from.
	sessMu   sync.Mutex
	sessions int
	sessBase Snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		origin:   rand.Uint64() | 1,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		stages:   make(map[string]*Histogram),
	}
}

var def = NewRegistry()

// Default returns the process-wide registry. Package-level
// instrumentation (blas kernel blocks, safe driver items) and components
// given no explicit registry record here.
func Default() *Registry { return def }

// Counter returns the counter series of the named family with the given
// labels (SeriesName; none is the bare family), creating it on first use.
// Resolve a labeled series once and cache it: the canonicalization sorts
// and escapes on every call. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.counters, SeriesName(name, labels...), func() *Counter { return &Counter{} })
}

// Gauge returns the gauge series of the named family with the given
// labels, creating it on first use. A nil registry returns a nil (no-op)
// gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.gauges, SeriesName(name, labels...), func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram series of the named family with the
// given labels, creating it with the given bucket upper bounds on first
// use (nil bounds select defaultLatencyBuckets). Later calls ignore
// bounds; all series of one family should share them so a merged family
// stays coherent. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = defaultLatencyBuckets
	}
	return getOrCreate(r, r.hists, SeriesName(name, labels...), func() *Histogram { return newHistogram(bounds) })
}

// getOrCreate returns m[key], calling create and storing its result under
// r's lock when the key is new.
func getOrCreate[T any](r *Registry, m map[string]*T, key string, create func() *T) *T {
	r.mu.RLock()
	v := m[key]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[key]; v == nil {
		v = create()
		m[key] = v
	}
	return v
}

// Interval is one timed section opened by Begin: the per-stage breakdown
// the paper reads off vTune, as one span and one histogram observation of
// the same two clock readings. The zero Interval is off.
type Interval struct {
	// Span is the interval's span, for attributes; nil when the context
	// carries no tracer.
	Span  *trace.Active
	h     *Histogram
	start time.Time
}

// Begin opens the interval name ("core/task"; "/" separates the layers)
// on the latency histogram "stage_<name>_seconds", "/" written "_", which
// is resolved once per registry and name. Use:
//
//	ctx, iv := reg.Begin(ctx, "corr/fused")
//	defer iv.End()
//
// Safe on a nil registry (the span alone).
func (r *Registry) Begin(ctx context.Context, name string) (context.Context, Interval) {
	return r.stage(name).Begin(ctx, name)
}

// Begin opens the interval name on h, a labeled series' handle (a
// tenant's queue wait) or a stage's: a span under ctx's when ctx carries
// a tracer, returned in the derived context, and one observation of h at
// End. The clock is read once at each end, so a warm call allocates
// nothing without a tracer. Safe on a nil histogram (the span alone).
func (h *Histogram) Begin(ctx context.Context, name string) (context.Context, Interval) {
	ctx, sp := trace.StartSpan(ctx, name)
	iv := Interval{Span: sp, h: h}
	if sp == nil && h != nil {
		iv.start = time.Now()
	}
	return ctx, iv
}

// End closes the interval: it ends the span and observes the histogram.
func (iv Interval) End() {
	if iv.Span != nil {
		iv.h.Observe(iv.Span.End().Seconds())
	} else if iv.h != nil {
		iv.h.Observe(time.Since(iv.start).Seconds())
	}
}

// stage returns the histogram of interval name; nil on a nil registry.
func (r *Registry) stage(name string) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.stages, name, func() *Histogram {
		key := "stage_" + strings.ReplaceAll(name, "/", "_") + "_seconds"
		if r.hists[key] == nil {
			r.hists[key] = newHistogram(defaultLatencyBuckets)
		}
		return r.hists[key]
	})
}
