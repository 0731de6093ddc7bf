package core_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"fcma/internal/baseline"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/tensor"
)

// Every place that takes a task's voxel range checks it with
// corr.CheckRange, which never forms V0+V: the worker, the fused stage,
// the baseline task and the gather under Pipeline.RunInto. A bad range
// must be refused by that check, not by whatever it would break later.
func TestTaskRangeCheckedByEveryCaller(t *testing.T) {
	_, st := core.TestStack(t, 20, 2, 4)
	wo, err := core.NewWorker(core.Optimized(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := baseline.NewWorker(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	callers := map[string]func(v0, V int) error{
		"corr.CheckRange": func(v0, V int) error { return corr.CheckRange(v0, V, st.N) },
		"core.Worker": func(v0, V int) error {
			_, err := wo.ProcessContext(ctx, core.Task{V0: v0, V: V})
			return err
		},
		"baseline.Worker": func(v0, V int) error {
			_, err := wb.ProcessContext(ctx, core.Task{V0: v0, V: V})
			return err
		},
		"corr.Pipeline.RunKernels": func(v0, V int) error {
			_, err := (&corr.Pipeline{}).RunKernels(ctx, st, v0, V)
			return err
		},
		"corr.EpochStack.GatherAssigned": func(v0, V int) (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("%v", r)
				}
			}()
			dst := &tensor.Matrix{Rows: V, Cols: st.T, Stride: st.T}
			if V > 0 && V <= st.N {
				dst.Data = make([]float32, V*st.T)
			}
			st.GatherAssigned(0, v0, V, dst)
			return nil
		},
	}
	for _, c := range []struct {
		v0, V int
		ok    bool
	}{
		{0, 20, true}, {5, 3, true}, {19, 1, true},
		{-1, 2, false}, {0, 0, false}, {3, -1, false}, {18, 5, false}, {20, 1, false},
		{math.MaxInt - 1, 8, false}, // V0+V wraps negative
		{1, math.MaxInt, false},     // so does this one
	} {
		for name, call := range callers {
			err := call(c.v0, c.V)
			if c.ok && err != nil {
				t.Errorf("%s: voxels [%d,+%d) of %d refused: %v", name, c.v0, c.V, st.N, err)
			}
			if !c.ok && (err == nil || !strings.Contains(err.Error(), "outside brain")) {
				t.Errorf("%s: voxels [%d,+%d) of %d: got %v, want the range check's error", name, c.v0, c.V, st.N, err)
			}
		}
	}
}
