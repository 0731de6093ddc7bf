package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fcma/internal/obs/trace"
)

// recorder keeps the traced run's spans in memory until the run ends.
// Spans are recorded by the benchmark around its calls into each layer;
// the contexts handed to the program carry no tracer, so the program's
// own span sites stay off. A nil recorder (tracing off) records nothing.
type recorder struct {
	lanes int // concurrent callers; op i renders on lane i mod lanes

	mu    sync.Mutex
	spans []trace.Span
	next  trace.SpanID
}

// active is a started span; nil (from a nil recorder) is valid and inert.
type active struct {
	r  *recorder
	op int
	s  trace.Span
}

// root opens a parentless span for op.
func (r *recorder) root(name string, op int) *active {
	if r == nil {
		return nil
	}
	return r.open(name, op, 0, op%max(r.lanes, 1))
}

// child opens a span under a.
func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	return a.r.open(name, a.op, a.s.ID, a.s.TID)
}

func (r *recorder) open(name string, op int, parent trace.SpanID, lane int) *active {
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &active{r: r, op: op, s: trace.Span{
		Name: name, Trace: 1, ID: id, Parent: parent, TID: lane,
		Attrs:   []trace.Attr{{Key: "op", Value: fmt.Sprint(op)}},
		StartNS: time.Now().UnixNano(),
	}}
}

// end closes the span now, files it, and returns its length in seconds.
func (a *active) end() float64 {
	if a == nil {
		return 0
	}
	a.s.DurNS = time.Now().UnixNano() - a.s.StartNS
	a.file()
	return float64(a.s.DurNS) / 1e9
}

// timed files a child of a whose interval the caller measured itself.
func (a *active) timed(name string, start time.Time, d time.Duration) {
	if a == nil {
		return
	}
	c := a.child(name)
	c.s.StartNS, c.s.DurNS = start.UnixNano(), int64(d)
	c.file()
}

func (a *active) file() {
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// seconds returns the duration of every recorded span called name.
func (r *recorder) seconds(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.DurNS)/1e9)
		}
	}
	return out
}

// self returns the self time of a filed span.
func (r *recorder) self(a *active) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return selfSeconds(r.spans, a.s.ID)
}

// selfSeconds is a span's duration minus the part of its interval that its
// child spans cover (overlapping children are counted once).
func selfSeconds(spans []trace.Span, id trace.SpanID) float64 {
	var parent *trace.Span
	for i := range spans {
		if spans[i].ID == id {
			parent = &spans[i]
		}
	}
	if parent == nil {
		return 0
	}
	lo, hi := parent.StartNS, parent.StartNS+parent.DurNS
	type interval struct{ lo, hi int64 }
	var kids []interval
	for _, s := range spans {
		if s.Parent == id {
			kids = append(kids, interval{max(s.StartNS, lo), min(s.StartNS+s.DurNS, hi)})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	var covered int64
	end := lo
	for _, k := range kids {
		if k.hi > end {
			covered += k.hi - max(k.lo, end)
			end = k.hi
		}
	}
	return float64(parent.DurNS-covered) / 1e9
}

// write renders the spans as Chrome trace-event JSON (the format of
// fcma.WriteTrace; open in https://ui.perfetto.dev).
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	werr := trace.WriteChrome(f, r.spans)
	r.mu.Unlock()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
