package main

import (
	"fmt"
	"math"

	"fcma"
)

// checkRanking verifies the shape every returned ranking must have: want
// entries, each voxel of [0, voxels) at most once (exactly once when the
// ranking covers the brain), accuracies in [0, 1], sorted by accuracy
// descending with ties broken by ascending voxel index.
func checkRanking(scores []fcma.VoxelScore, voxels, want int) error {
	if len(scores) != want {
		return fmt.Errorf("ranking has %d entries, want %d", len(scores), want)
	}
	seen := make([]bool, voxels)
	for i, s := range scores {
		if s.Voxel < 0 || s.Voxel >= voxels {
			return fmt.Errorf("entry %d: voxel %d outside brain of %d", i, s.Voxel, voxels)
		}
		if seen[s.Voxel] {
			return fmt.Errorf("entry %d: voxel %d ranked twice", i, s.Voxel)
		}
		seen[s.Voxel] = true
		if !(s.Accuracy >= 0 && s.Accuracy <= 1) {
			return fmt.Errorf("entry %d: accuracy %v outside [0, 1]", i, s.Accuracy)
		}
		if i == 0 {
			continue
		}
		p := scores[i-1]
		if p.Accuracy < s.Accuracy || (p.Accuracy == s.Accuracy && p.Voxel > s.Voxel) {
			return fmt.Errorf("entries %d, %d out of order: (%d, %v) before (%d, %v)",
				i-1, i, p.Voxel, p.Accuracy, s.Voxel, s.Accuracy)
		}
	}
	return nil
}

// sameRanking reports the first difference between two rankings that must
// be bit-identical, or nil.
func sameRanking(got, want []fcma.VoxelScore) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Voxel != want[i].Voxel ||
			math.Float64bits(got[i].Accuracy) != math.Float64bits(want[i].Accuracy) {
			return fmt.Errorf("entry %d is (%d, %v), want (%d, %v)",
				i, got[i].Voxel, got[i].Accuracy, want[i].Voxel, want[i].Accuracy)
		}
	}
	return nil
}

// nearRanking is sameRanking for ops that ran at Workers > 1. There the
// batched kernel precompute adds its per-block partial sums in scheduling
// order, the last bits of a kernel matrix differ from run to run, and now
// and then SMO lands on the other side of one test epoch of one voxel. So:
// at most 1 % of the entries (and one) may differ, a voxel that differs
// does so by at most two test epochs (2/epochs of accuracy) or has slipped
// off the end of a truncated ranking.
func nearRanking(got, want []fcma.VoxelScore, epochs int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	ref := make(map[int]float64, len(want))
	for _, s := range want {
		ref[s.Voxel] = s.Accuracy
	}
	differing := 0
	for _, s := range got {
		acc, ok := ref[s.Voxel]
		if ok && s.Accuracy == acc {
			continue
		}
		if ok && math.Abs(s.Accuracy-acc) > 2/float64(epochs)+1e-9 {
			return fmt.Errorf("voxel %d scored %v, want %v: more than two test epochs apart", s.Voxel, s.Accuracy, acc)
		}
		differing++
	}
	if limit := len(got)/100 + 1; differing > limit {
		return fmt.Errorf("%d of %d entries differ, more than the %d that summation order explains", differing, len(got), limit)
	}
	return nil
}

// plantedRecall is the share of the planted signal voxels found among the
// first len(planted) entries of the ranking.
func plantedRecall(scores []fcma.VoxelScore, planted []int) float64 {
	if len(planted) == 0 {
		return 0
	}
	is := make(map[int]bool, len(planted))
	for _, v := range planted {
		is[v] = true
	}
	hit := 0
	for _, s := range scores[:min(len(planted), len(scores))] {
		if is[s.Voxel] {
			hit++
		}
	}
	return float64(hit) / float64(len(planted))
}
