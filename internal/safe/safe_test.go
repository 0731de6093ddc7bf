package safe

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fcma/internal/obs/trace"
)

func TestParallelDynamicContainsPanic(t *testing.T) {
	err := ParallelDynamic(context.Background(), Span{Stage: "test/stage", Base: 100}, 32, 4, func(_ context.Context, i int) error {
		if i == 7 {
			panic("boom")
		}
		return nil
	})
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PipelineError, got %v", err)
	}
	if pe.Stage != "test/stage" || pe.V0 != 107 || pe.V != 1 {
		t.Fatalf("bad error annotation: %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error carries no stack")
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("error %q does not name the panic", pe.Error())
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

func TestParallelDriversCancellation(t *testing.T) {
	for name, driver := range map[string]func(ctx context.Context, n, w int, fn func(context.Context, int) error) error{
		"dynamic": func(ctx context.Context, n, w int, fn func(context.Context, int) error) error {
			return ParallelDynamic(ctx, Span{Stage: "s"}, n, w, fn)
		},
		"chunks": func(ctx context.Context, n, w int, fn func(context.Context, int) error) error {
			return ParallelChunks(ctx, Span{Stage: "s"}, n, w, fn)
		},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int64
			err := driver(ctx, 10_000, 4, func(_ context.Context, i int) error {
				if ran.Add(1) == 8 {
					cancel()
				}
				time.Sleep(100 * time.Microsecond)
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

func TestParallelRangesContainsPanicAndCancels(t *testing.T) {
	err := ParallelRanges(context.Background(), Span{Stage: "kernel"}, 100, 4, func(_ context.Context, s, e int) error {
		if s == 0 {
			panic(errors.New("kernel fault"))
		}
		return nil
	})
	var pe *PipelineError
	if !errors.As(err, &pe) || pe.Stage != "kernel" {
		t.Fatalf("want contained kernel panic, got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ParallelRanges(ctx, Span{}, 100, 4, func(_ context.Context, s, e int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
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
	drivers := map[string]func(ctx context.Context, w int) error{
		"dynamic": func(ctx context.Context, w int) error {
			return ParallelDynamic(ctx, Span{Stage: stage}, n, w, item)
		},
		"chunks": func(ctx context.Context, w int) error {
			return ParallelChunks(ctx, Span{Stage: stage}, n, w, item)
		},
		"ranges": func(ctx context.Context, w int) error {
			return ParallelRanges(ctx, Span{Stage: stage}, n, w, func(ctx context.Context, s, e int) error {
				for i := s; i < e; i++ {
					item(ctx, i)
				}
				return nil
			})
		},
	}
	for name, run := range drivers {
		for _, workers := range []int{1, 2, 4} {
			tr := trace.New(0)
			if err := run(trace.NewContext(context.Background(), tr), workers); err != nil {
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
					t.Fatalf("%s: unexpected span %q", name, s.Name)
				}
			}
			// The serial path spawns no goroutine and so opens no lane.
			wantLanes := workers
			if workers == 1 {
				wantLanes = 0
			}
			if items != n || len(lanes) != wantLanes {
				t.Fatalf("%s at %d workers: %d item spans on %d lanes, want %d on %d", name, workers, items, len(lanes), n, wantLanes)
			}
		}
	}
}
