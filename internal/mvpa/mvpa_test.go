package mvpa

import (
	"context"
	"math/rand"
	"testing"

	"fcma/internal/fmri"
)

// connectivityDataset plants condition-dependent *connectivity* with
// condition-invariant activity levels (the fmri generator's construction).
func connectivityDataset(t testing.TB) *fmri.Dataset {
	t.Helper()
	d, err := fmri.Generate(fmri.Spec{
		Name:             "mvpa-conn",
		Voxels:           48,
		Subjects:         5,
		EpochsPerSubject: 12,
		EpochLen:         12,
		RestLen:          2,
		SignalVoxels:     12,
		Coupling:         0.85,
		Seed:             21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// activityDataset plants condition-dependent activity LEVELS: signal
// voxels get a mean shift during condition-1 epochs.
func activityDataset(t testing.TB) (*fmri.Dataset, []int) {
	t.Helper()
	d, err := fmri.Generate(fmri.Spec{
		Name:             "mvpa-act",
		Voxels:           48,
		Subjects:         5,
		EpochsPerSubject: 12,
		EpochLen:         12,
		RestLen:          2,
		SignalVoxels:     0,
		Coupling:         0.5,
		Seed:             22,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	active := []int{3, 11, 19, 27, 35, 43}
	for _, e := range d.Epochs {
		if e.Label != 1 {
			continue
		}
		for _, v := range active {
			row := d.Data.Row(v)
			for tt := e.Start; tt < e.Start+e.Len; tt++ {
				row[tt] += 1.5 + float32(rng.NormFloat64())*0.1
			}
		}
	}
	return d, active
}

func topSet(scores []VoxelScore, k int) map[int]bool {
	out := make(map[int]bool, k)
	for _, s := range scores[:k] {
		out[s.Voxel] = true
	}
	return out
}

func TestActivityMVPAFindsActivityVoxels(t *testing.T) {
	d, active := activityDataset(t)
	scores, err := SelectVoxelsContext(context.Background(), d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != d.Voxels() {
		t.Fatalf("scores = %d", len(scores))
	}
	top := topSet(scores, len(active))
	hits := 0
	for _, v := range active {
		if top[v] {
			hits++
		}
	}
	if hits < len(active)-1 {
		t.Fatalf("activity MVPA found only %d of %d activity voxels", hits, len(active))
	}
}

func TestActivityMVPABlindToConnectivity(t *testing.T) {
	// FCMA's motivating case: planted connectivity voxels have identical
	// activity statistics across conditions, so activity MVPA must score
	// them near chance.
	d := connectivityDataset(t)
	scores, err := SelectVoxelsContext(context.Background(), d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	byVoxel := make(map[int]float64, len(scores))
	for _, s := range scores {
		byVoxel[s.Voxel] = s.Accuracy
	}
	// Hmm: coupled voxels share a latent during condition 1, which leaves
	// their per-epoch mean-centered time course distribution unchanged;
	// accuracy should hover near 0.5 for planted voxels.
	var sum float64
	for _, v := range d.SignalVoxels {
		sum += byVoxel[v]
	}
	mean := sum / float64(len(d.SignalVoxels))
	if mean > 0.68 {
		t.Fatalf("activity MVPA scores connectivity voxels at %v — should be near chance", mean)
	}
}

func TestScoresSortedAndComplete(t *testing.T) {
	d := connectivityDataset(t)
	scores, err := SelectVoxelsContext(context.Background(), d, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i, s := range scores {
		if i > 0 && s.Accuracy > scores[i-1].Accuracy {
			t.Fatal("scores not sorted")
		}
		if seen[s.Voxel] {
			t.Fatalf("voxel %d scored twice", s.Voxel)
		}
		seen[s.Voxel] = true
	}
	if len(seen) != d.Voxels() {
		t.Fatalf("scored %d of %d voxels", len(seen), d.Voxels())
	}
}

func TestSelectVoxelsRejectsInvalid(t *testing.T) {
	d := connectivityDataset(t)
	d.Epochs[0].Label = 9
	if _, err := SelectVoxelsContext(context.Background(), d, Config{}); err == nil {
		t.Fatal("invalid dataset accepted")
	}
}
