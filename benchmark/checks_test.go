package main

import (
	"math"
	"strings"
	"testing"

	"fcma"
)

func ranking(pairs ...float64) []fcma.VoxelScore {
	out := make([]fcma.VoxelScore, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, fcma.VoxelScore{Voxel: int(pairs[i]), Accuracy: pairs[i+1]})
	}
	return out
}

// TestPlantedRecall checks the recall computation against a hand-built
// ranking: of planted {1, 4, 7}, the top three entries hold 4 and 1.
func TestPlantedRecall(t *testing.T) {
	r := ranking(4, 0.9, 2, 0.8, 1, 0.8, 7, 0.7, 0, 0.5)
	if got, want := plantedRecall(r, []int{1, 4, 7}), 2.0/3; got != want {
		t.Errorf("recall = %v, want %v", got, want)
	}
	if got := plantedRecall(r, []int{4}); got != 1 {
		t.Errorf("recall of the top voxel = %v, want 1", got)
	}
	if got := plantedRecall(r[:2], []int{1, 4, 7}); got != 1.0/3 {
		t.Errorf("recall over a ranking shorter than the planted set = %v, want 1/3", got)
	}
	if got := plantedRecall(r, nil); got != 0 {
		t.Errorf("recall with nothing planted = %v, want 0", got)
	}
}

func TestCheckRanking(t *testing.T) {
	good := ranking(2, 0.9, 0, 0.5, 1, 0.5)
	if err := checkRanking(good, 3, 3); err != nil {
		t.Errorf("valid ranking refused: %v", err)
	}
	for _, c := range []struct {
		name string
		r    []fcma.VoxelScore
		want string
	}{
		{"short", good[:2], "entries"},
		{"voxel twice", ranking(2, 0.9, 2, 0.5, 1, 0.5), "twice"},
		{"voxel outside", ranking(3, 0.9, 0, 0.5, 1, 0.5), "outside brain"},
		{"ascending", ranking(0, 0.5, 2, 0.9, 1, 0.5), "out of order"},
		{"tie by descending index", ranking(2, 0.9, 1, 0.5, 0, 0.5), "out of order"},
		{"accuracy above one", ranking(2, 1.5, 0, 0.5, 1, 0.5), "outside [0, 1]"},
		{"accuracy NaN", ranking(2, math.NaN(), 0, 0.5, 1, 0.5), "outside [0, 1]"},
	} {
		err := checkRanking(c.r, 3, 3)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

func TestSameRankingIsBitwise(t *testing.T) {
	a := ranking(0, 0.75, 1, 0.5)
	if err := sameRanking(a, ranking(0, 0.75, 1, 0.5)); err != nil {
		t.Errorf("equal rankings differ: %v", err)
	}
	if err := sameRanking(a, ranking(0, math.Nextafter(0.75, 1), 1, 0.5)); err == nil {
		t.Error("a one-ulp difference passed as identical")
	}
	if err := sameRanking(a, a[:1]); err == nil {
		t.Error("rankings of different length passed as identical")
	}
}

// TestNearRanking pins what summation-order noise may and may not explain.
func TestNearRanking(t *testing.T) {
	want := make([]fcma.VoxelScore, 200)
	for i := range want {
		want[i] = fcma.VoxelScore{Voxel: i, Accuracy: 0.5}
	}
	change := func(edit func(r []fcma.VoxelScore)) []fcma.VoxelScore {
		r := append([]fcma.VoxelScore(nil), want...)
		edit(r)
		return r
	}
	const epochs = 48
	if err := nearRanking(want, want, epochs); err != nil {
		t.Errorf("identical rankings differ: %v", err)
	}
	oneEpoch := change(func(r []fcma.VoxelScore) { r[7].Accuracy += 1.0 / epochs })
	if err := nearRanking(oneEpoch, want, epochs); err != nil {
		t.Errorf("one voxel one test epoch apart refused: %v", err)
	}
	slipped := change(func(r []fcma.VoxelScore) { r[199].Voxel = 1000 })
	if err := nearRanking(slipped, want, epochs); err != nil {
		t.Errorf("one voxel slipping off a truncated ranking refused: %v", err)
	}
	farOff := change(func(r []fcma.VoxelScore) { r[7].Accuracy += 3.0 / epochs })
	if err := nearRanking(farOff, want, epochs); err == nil {
		t.Error("a voxel three test epochs apart passed")
	}
	tooMany := change(func(r []fcma.VoxelScore) {
		for i := 0; i < 4; i++ {
			r[i].Accuracy += 1.0 / epochs
		}
	})
	if err := nearRanking(tooMany, want, epochs); err == nil {
		t.Error("four of 200 entries differing passed; the limit is three")
	}
}
