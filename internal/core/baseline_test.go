package core_test

import (
	"context"
	"testing"

	"fcma/internal/baseline"
	"fcma/internal/core"
)

// The paper's two configurations compute the same mathematics via different
// kernels: the baseline task (packing BLAS, separated stages, per-voxel
// kernel matrices, LibSVM) and the one worker every entry point runs must
// rank the planted voxels alike and score each voxel closely — on the Go
// kernels and on the AVX2 ones (blas, norm and svm switched together).
func TestBaselineAndOptimizedAgreeOnRanking(t *testing.T) {
	core.EachKernelPath(t, func(t *testing.T) {
		d, st := core.TestStack(t, 32, 4, 10)
		task := core.Task{V0: 0, V: 32}
		wb, err := baseline.NewWorker(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		wo, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := wb.ProcessContext(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		so, err := wo.ProcessContext(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		k := len(d.SignalVoxels)
		topB := map[int]bool{}
		for _, s := range core.TopVoxels(sb, k) {
			topB[s.Voxel] = true
		}
		agree := 0
		for _, s := range core.TopVoxels(so, k) {
			if topB[s.Voxel] {
				agree++
			}
		}
		if agree*3 < k*2 {
			t.Fatalf("baseline and optimized top-%d overlap only %d", k, agree)
		}
		for i := range sb {
			diff := sb[i].Accuracy - so[i].Accuracy
			if diff < -0.25 || diff > 0.25 {
				t.Fatalf("voxel %d accuracy: baseline %v vs optimized %v", i, sb[i].Accuracy, so[i].Accuracy)
			}
		}
	})
}
