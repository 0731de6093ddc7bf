package safe

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"fcma/internal/obs/trace"
)

// Inline at one worker or pooled at four, the driver contains a panic and
// reports the item that threw it.
func TestParallelDynamicContainsPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ParallelDynamic(context.Background(), Span{Stage: "test/stage", Base: 100}, 32, workers, func(_ context.Context, i int) error {
			if i == 7 {
				panic("boom")
			}
			return nil
		})
		var pe *PipelineError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PipelineError, got %v", workers, err)
		}
		if pe.Stage != "test/stage" || pe.V0 != 107 || pe.V != 1 {
			t.Fatalf("workers=%d: bad error annotation: %+v", workers, pe)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic error carries no stack", workers)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Fatalf("workers=%d: error %q does not name the panic", workers, pe.Error())
		}
	}
}

func TestParallelDynamicReportsLowestFailure(t *testing.T) {
	err := ParallelDynamic(context.Background(), Span{Stage: "s"}, 64, 1, func(_ context.Context, i int) error {
		if i == 3 || i == 5 {
			return fmt.Errorf("item %d failed", i)
		}
		return nil
	})
	var pe *PipelineError
	if !errors.As(err, &pe) || pe.V0 != 3 {
		t.Fatalf("want failure at item 3, got %v", err)
	}
}

func TestParallelDynamicCoversRange(t *testing.T) {
	for _, workers := range []int{0, 1, 5, 100} {
		seen := make([]atomic.Int32, 31)
		err := ParallelDynamic(context.Background(), Span{Stage: "s"}, len(seen), workers, func(_ context.Context, i int) error {
			seen[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestParallelDriversCancellation(t *testing.T) {
	// One worker runs the items inline; four take them dynamically from a pool.
	for name, workers := range map[string]int{"inline": 1, "dynamic": 4} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int64
			err := ParallelDynamic(ctx, Span{Stage: "s"}, 10_000, workers, func(_ context.Context, i int) error {
				if ran.Add(1) == 8 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if n := ran.Load(); n > 1000 {
				t.Fatalf("ran %d items after cancellation", n)
			}
		})
	}
}

func TestDoPassesThroughAndRecovers(t *testing.T) {
	if err := Do("s", 0, 0, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := errors.New("plain")
	if err := Do("s", 0, 0, func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
	err := Do("s", 3, 2, func() error { panic("p") })
	var pe *PipelineError
	if !errors.As(err, &pe) || pe.V0 != 3 || pe.V != 2 {
		t.Fatalf("got %v", err)
	}
}

func TestGoReportsPanicOnce(t *testing.T) {
	ch := make(chan error, 1)
	Go("svc", func() error { panic("dead service") }, func(err error) { ch <- err })
	err := <-ch
	var pe *PipelineError
	if !errors.As(err, &pe) || pe.Stage != "svc" {
		t.Fatalf("got %v", err)
	}
}

// A span name means one thing: a stage's items carry the stage's name and
// the pool goroutines carry "<stage>/lane", so a consumer counting a
// stage's spans gets the item count at any worker count. (The root
// package's one-svm/cv-span-per-voxel check failed on every multi-core
// machine while lanes shared the stage's name.)
func TestLaneSpansAreNamedApartFromItems(t *testing.T) {
	const stage, n = "test/stage", 40
	item := func(ctx context.Context, _ int) error {
		_, sp := trace.StartSpan(ctx, stage)
		sp.End()
		return nil
	}
	for _, workers := range []int{1, 2, 4} {
		tr := trace.New(0)
		if err := ParallelDynamic(trace.NewContext(context.Background(), tr), Span{Stage: stage}, n, workers, item); err != nil {
			t.Fatal(err)
		}
		items, lanes := 0, make(map[int]bool)
		for _, s := range tr.Drain() {
			switch s.Name {
			case stage:
				items++
			case stage + "/lane":
				lanes[s.TID] = true
			default:
				t.Fatalf("unexpected span %q", s.Name)
			}
		}
		// One worker runs inline: no goroutine, so no lane span.
		wantLanes := workers
		if workers == 1 {
			wantLanes = 0
		}
		if items != n || len(lanes) != wantLanes {
			t.Fatalf("%d workers: %d item spans on %d lanes, want %d on %d", workers, items, len(lanes), n, wantLanes)
		}
	}
}
