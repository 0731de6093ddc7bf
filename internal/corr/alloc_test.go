package corr

import (
	"context"
	"testing"

	"fcma/internal/tensor"
)

// The allocation contract is per work item: none allocates. Every scratch
// block is pooled, the counters are label-free lookups and a stage's
// histogram is resolved once per registry (obs.Registry.Begin), so a warm
// RunInto costs one heap object per stage pass — the item closure handed
// to the driver — and costs the same at 4× the items. Any new per-item allocation makes
// the V = 32 count exceed the V = 8 count and fails this.
func TestRunIntoAllocsPerStagePass(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	d := testDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		p      *Pipeline
		passes float64
	}{
		{"merged", &Pipeline{Workers: 1, Merged: true, ColBlock: 16, VoxBlock: 4}, 1},
		{"separated", &Pipeline{Workers: 1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachKernelPath(t, func(t *testing.T) {
				allocs := func(V int) float64 {
					buf := tensor.NewMatrix(V*st.M(), st.N)
					if err := tc.p.RunInto(ctx, st, 0, V, buf); err != nil { // warm the pools and the stage histograms
						t.Fatal(err)
					}
					return testing.AllocsPerRun(10, func() {
						if err := tc.p.RunInto(ctx, st, 0, V, buf); err != nil {
							t.Fatal(err)
						}
					})
				}
				at8, at32 := allocs(8), allocs(32)
				if at8 > tc.passes {
					t.Fatalf("warm RunInto allocates %v per run, want at most %v (one per stage pass)", at8, tc.passes)
				}
				if at32 != at8 {
					t.Fatalf("warm RunInto allocates %v per run at V=8 but %v at V=32: some work item allocates", at8, at32)
				}
			})
		})
	}
}

// What makes one code path per stage safe: the output does not depend on
// which goroutine ran which item. RunInto is bit-identical across worker
// counts, for both modes, with ragged final voxel and column blocks.
func TestRunIntoBitIdenticalAcrossWorkers(t *testing.T) {
	eachKernelPath(t, testRunIntoBitIdenticalAcrossWorkers)
}

func testRunIntoBitIdenticalAcrossWorkers(t *testing.T) {
	d := testDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	const v0, V = 1, 13 // VoxBlock 4 → blocks 4,4,4,1; N=48, ColBlock 7 → last block 6
	for _, merged := range []bool{true, false} {
		var want *tensor.Matrix
		for _, workers := range []int{1, 2, 3, 8} {
			p := &Pipeline{Workers: workers, Merged: merged, ColBlock: 7, VoxBlock: 4}
			got := tensor.NewMatrix(V*st.M(), st.N)
			if err := p.RunInto(context.Background(), st, v0, V, got); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !got.Equal(want) {
				t.Fatalf("merged=%v: Workers=%d differs from Workers=1 (max diff %g)", merged, workers, got.MaxAbsDiff(want))
			}
		}
	}
}

// RunInto must be exactly RunContext minus the buffer allocation.
func TestRunIntoMatchesRunContext(t *testing.T) { eachKernelPath(t, testRunIntoMatchesRunContext) }

func testRunIntoMatchesRunContext(t *testing.T) {
	d := testDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, merged := range []bool{false, true} {
		p := &Pipeline{Workers: 2, Merged: merged, ColBlock: 13, VoxBlock: 3}
		want, err := p.RunContext(context.Background(), st, 4, 9)
		if err != nil {
			t.Fatal(err)
		}
		got := tensor.NewMatrix(9*st.M(), st.N)
		if err := p.RunInto(context.Background(), st, 4, 9, got); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("merged=%v: RunInto diverges from RunContext (max diff %g)", merged, got.MaxAbsDiff(want))
		}
	}
}

func TestRunIntoRejectsWrongShape(t *testing.T) {
	d := testDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Workers: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong buffer shape")
		}
	}()
	_ = p.RunInto(context.Background(), st, 0, 4, tensor.NewMatrix(3, st.N))
}

// Eq. 2's per-row normalization runs once per voxel row of every epoch
// when a stack is built or an epoch is appended; the row itself allocates
// nothing.
func TestNormalizeVectorAllocsZero(t *testing.T) {
	src := []float32{1, 4, 2, 8, 5, 7, 3, 6, 9, 0, 2, 4}
	dst := make([]float32, len(src))
	if n := testing.AllocsPerRun(100, func() { normalizeVector(dst, src) }); n != 0 {
		t.Fatalf("normalizeVector allocates %v per run, want 0", n)
	}
}
