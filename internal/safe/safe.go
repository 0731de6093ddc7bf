// Package safe is the robustness substrate of the single-node pipeline:
// a structured error type for contained failures and one context-aware
// parallel driver that recovers panics in spawned goroutines instead of
// letting them kill the process.
//
// Every compute package (core, corr, blas, mvpa) runs its goroutines
// through that driver, so the whole pipeline shares one containment and
// cancellation discipline: a panic anywhere inside a work item surfaces
// as a *PipelineError carrying the stage name, the item range, and the
// panic's stack; a cancelled context stops all goroutines at the next
// work-item boundary (the pipeline's checkpoint interval) and returns
// ctx.Err().
package safe

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"fcma/internal/obs"
	"fcma/internal/obs/trace"
)

// Driver-level health counters in the process-wide registry: one driver,
// so one set of counters describes the whole pipeline's work-item churn.
// Increments are one atomic add per work item (an epoch, a kernel chunk, a
// voxel's CV) — far below the instrumentation budget.
var (
	obsItemsDone = obs.Default().Counter("safe_items_completed_total")
	obsItemFails = obs.Default().Counter("safe_item_failures_total")
	obsPanics    = obs.Default().Counter("safe_panics_contained_total")
)

// PipelineError is a contained failure from inside the compute pipeline:
// a panicking goroutine or a failing work item, annotated with where in
// the pipeline it happened.
type PipelineError struct {
	// Stage names the pipeline stage, e.g. "corr/merged" or "svm/cv".
	Stage string
	// V0 and V give the voxel (or work-item) range the failure occurred
	// in; V == 0 means the range is unknown.
	V0, V int
	// Err is the underlying cause: the recovered panic value wrapped as
	// an error, or the work item's returned error.
	Err error
	// Stack is the goroutine stack captured at recovery time when the
	// failure was a panic; nil for ordinary errors.
	Stack []byte
}

// Error implements error.
func (e *PipelineError) Error() string {
	if e.V > 0 {
		return fmt.Sprintf("fcma: pipeline stage %s voxels [%d,%d): %v", e.Stage, e.V0, e.V0+e.V, e.Err)
	}
	return fmt.Sprintf("fcma: pipeline stage %s: %v", e.Stage, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *PipelineError) Unwrap() error { return e.Err }

// Recovered converts a recover() value into a *PipelineError capturing
// the current stack. It returns nil when r is nil so it can be called
// unconditionally from a deferred function.
func Recovered(stage string, v0, v int, r any) *PipelineError {
	if r == nil {
		return nil
	}
	// A panic that is already a contained pipeline failure (a lower layer
	// recovered it and re-threw across a no-error-return boundary) keeps
	// its original stage, range, and stack.
	if pe, ok := r.(*PipelineError); ok {
		return pe
	}
	obsPanics.Inc()
	err, ok := r.(error)
	if !ok {
		err = fmt.Errorf("panic: %v", r)
	} else {
		err = fmt.Errorf("panic: %w", err)
	}
	// The containment path doubles as the crash hook: note the panic in
	// the flight recorder and, when a command has armed crash dumps,
	// write the black-box readout before the error propagates (the
	// layers above may retry, quarantine, or abort — the dump preserves
	// what led up to the panic either way).
	trace.DefaultFlight().Note("panic", fmt.Sprintf("stage %s voxels [%d,%d): %v", stage, v0, v0+v, r))
	trace.DumpNow(fmt.Sprintf("panic contained in stage %s", stage))
	return &PipelineError{Stage: stage, V0: v0, V: v, Err: err, Stack: debug.Stack()}
}

// Do runs fn with panic containment: a panic inside fn comes back as a
// *PipelineError instead of unwinding into the caller.
func Do(stage string, v0, v int, fn func() error) (err error) {
	defer func() {
		if pe := Recovered(stage, v0, v, recover()); pe != nil {
			err = pe
		}
	}()
	return fn()
}

// Span labels the work the parallel driver is running for error reporting:
// item i of the driver maps to voxel Base+i of stage Stage.
type Span struct {
	// Stage names the pipeline stage for PipelineError.
	Stage string
	// Base is added to item indices when reporting voxel ranges.
	Base int
}

// err wraps an item failure; a panic is already a *PipelineError.
func (s Span) err(i int, cause error) error {
	if pe, ok := cause.(*PipelineError); ok {
		return pe
	}
	return &PipelineError{Stage: s.Stage, V0: s.Base + i, V: 1, Err: cause}
}

// firstErr keeps the lowest-index failure so parallel runs are
// deterministic about which error they report.
type firstErr struct {
	mu  sync.Mutex
	i   int
	err error
}

func (f *firstErr) set(i int, err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil || i < f.i {
		f.i, f.err = i, err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

func clampWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// cancelled is a non-blocking ctx.Done() poll; a nil ctx never cancels.
func cancelled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// startLane opens a pool goroutine's span, named "<stage>/lane" and never
// the stage's own name: a span name means one thing, so counting a
// stage's spans counts its items whatever the number of goroutines.
func startLane(ctx context.Context, stage string) (context.Context, *trace.Active) {
	if trace.FromContext(ctx) == nil {
		return ctx, nil // tracing off: do not build the name
	}
	return trace.StartWorkerSpan(ctx, stage+"/lane")
}

// ParallelDynamic runs fn(ctx, i) for i in [0, n) across at most
// `workers` goroutines (0 means GOMAXPROCS), each taking the lowest
// unstarted item when it finishes one (corr's mirrored walk, whose items
// wait on earlier ones, relies on that order). It is the only parallel driver:
// every stage of the pipeline is "for each independent item, run it on
// some thread", and per-item cost is either data dependent (per-voxel SMO
// cross-validation) or uniform, where taking items in turn costs nothing
// over a static split.
//
// With one worker (or one item) the items run in order on the caller's
// goroutine: no goroutine, no lock, no lane span. Otherwise every pool
// goroutine opens a "<stage>/lane" span on its own timeline lane (one tid
// per goroutine) when the caller's ctx carries a tracer; the ctx handed
// to each item is that goroutine's tracing context, so items nest under
// their lane and the merged trace shows per-goroutine occupancy. With
// tracing disabled the driver adds one context poll per item and nothing
// else.
//
// Every item runs with panic containment; the first failure (by item
// index) is returned as a *PipelineError after all goroutines have
// joined. Cancellation is checked before each item is taken, so a cancel
// stops the pool within one work item per goroutine and returns
// ctx.Err(). Remaining items are skipped once any item has failed.
func ParallelDynamic(ctx context.Context, span Span, n, workers int, fn func(ctx context.Context, i int) error) error {
	workers = clampWorkers(n, workers)
	if workers <= 1 {
		return runInline(ctx, span, n, fn)
	}
	var fe firstErr
	var next atomic.Int64
	runItem := func(ictx context.Context, i int) {
		defer func() {
			if pe := Recovered(span.Stage, span.Base+i, 1, recover()); pe != nil {
				fe.set(i, pe)
			}
		}()
		if err := fn(ictx, i); err != nil {
			obsItemFails.Inc()
			fe.set(i, span.err(i, err))
			return
		}
		obsItemsDone.Inc()
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			gctx, gsp := startLane(ctx, span.Stage)
			defer gsp.End()
			for {
				if cancelled(ctx) != nil || fe.get() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runItem(gctx, i)
			}
		}()
	}
	wg.Wait()
	if err := fe.get(); err != nil {
		return err
	}
	return cancelled(ctx)
}

// runInline is ParallelDynamic at one worker. The single recover sits
// around the whole loop (the first failure ends the run anyway), and i
// lives outside it so the recovered error names the item that panicked.
func runInline(ctx context.Context, span Span, n int, fn func(ctx context.Context, i int) error) (err error) {
	i := 0
	defer func() {
		if pe := Recovered(span.Stage, span.Base+i, 1, recover()); pe != nil {
			err = pe
		}
	}()
	for ; i < n; i++ {
		if err := cancelled(ctx); err != nil {
			return err
		}
		if err := fn(ctx, i); err != nil {
			obsItemFails.Inc()
			return span.err(i, err)
		}
		obsItemsDone.Inc()
	}
	return cancelled(ctx)
}

// Go spawns fn on its own goroutine with panic containment and reports
// its outcome (the returned error, or a *PipelineError for a panic) to
// report exactly once. A nil report discards the outcome but keeps the
// containment. It is the building block for long-lived service
// goroutines (streamers, feedback loops, cluster workers) that must
// never take the process down.
func Go(stage string, fn func() error, report func(error)) {
	go func() {
		var err error
		defer func() {
			if pe := Recovered(stage, 0, 0, recover()); pe != nil {
				err = pe
			}
			if report != nil {
				report(err)
			}
		}()
		err = fn()
	}()
}
