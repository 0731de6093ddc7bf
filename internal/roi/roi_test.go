package roi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fcma/internal/fmri"
)

func TestCoordIndexRoundTrip(t *testing.T) {
	dims := [3]int{5, 7, 3}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := rng.Intn(dims[0] * dims[1] * dims[2])
		return index(dims, coord(dims, v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClustersSingleComponent(t *testing.T) {
	dims := [3]int{4, 4, 4}
	// A 2x2x1 plate at the origin.
	sel := []int{
		index(dims, [3]int{0, 0, 0}), index(dims, [3]int{1, 0, 0}),
		index(dims, [3]int{0, 1, 0}), index(dims, [3]int{1, 1, 0}),
	}
	regions, err := Clusters(dims, sel, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 || regions[0].Size() != 4 {
		t.Fatalf("regions = %+v", regions)
	}
	c := regions[0].Center
	if c[0] != 0.5 || c[1] != 0.5 || c[2] != 0 {
		t.Fatalf("center = %v", c)
	}
}

func TestClustersSeparatesComponents(t *testing.T) {
	dims := [3]int{10, 10, 1}
	// Two L-shaped groups far apart plus one isolated voxel.
	a := []int{index(dims, [3]int{0, 0, 0}), index(dims, [3]int{0, 1, 0}), index(dims, [3]int{1, 1, 0})}
	b := []int{index(dims, [3]int{8, 8, 0}), index(dims, [3]int{9, 8, 0})}
	iso := []int{index(dims, [3]int{5, 5, 0})}
	sel := append(append(append([]int{}, a...), b...), iso...)
	regions, err := Clusters(dims, sel, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("want 2 regions (isolated voxel filtered), got %d", len(regions))
	}
	if regions[0].Size() != 3 || regions[1].Size() != 2 {
		t.Fatalf("sizes: %d, %d", regions[0].Size(), regions[1].Size())
	}
}

func TestClustersDiagonalNotConnected(t *testing.T) {
	dims := [3]int{4, 4, 1}
	sel := []int{index(dims, [3]int{0, 0, 0}), index(dims, [3]int{1, 1, 0})}
	regions, err := Clusters(dims, sel, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("diagonal voxels must not connect under 6-connectivity, got %d regions", len(regions))
	}
}

func TestClustersPeakFromScores(t *testing.T) {
	dims := [3]int{4, 1, 1}
	sel := []int{0, 1, 2}
	scores := map[int]float64{0: 0.6, 1: 0.9, 2: 0.7}
	regions, err := Clusters(dims, sel, 1, scores)
	if err != nil {
		t.Fatal(err)
	}
	if regions[0].PeakVoxel != 1 || regions[0].PeakScore != 0.9 {
		t.Fatalf("peak = %d (%v)", regions[0].PeakVoxel, regions[0].PeakScore)
	}
}

func TestClustersErrors(t *testing.T) {
	if _, err := Clusters([3]int{0, 1, 1}, []int{0}, 1, nil); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := Clusters([3]int{2, 2, 2}, []int{8}, 1, nil); err == nil {
		t.Fatal("out-of-grid voxel accepted")
	}
}

func TestClustersDeterministicOrder(t *testing.T) {
	dims := [3]int{6, 6, 1}
	sel := []int{3, 2, 35, 34, 33, 1} // bigger region has lower voxels? sizes 3 vs 3 — order by first voxel
	a, err := Clusters(dims, sel, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffled input must give identical output.
	sel2 := []int{34, 1, 33, 3, 35, 2}
	b, err := Clusters(dims, sel2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("length differs")
	}
	for i := range a {
		if len(a[i].Voxels) != len(b[i].Voxels) || a[i].Voxels[0] != b[i].Voxels[0] {
			t.Fatalf("order not deterministic: %+v vs %+v", a, b)
		}
	}
}

func TestBlobbedDatasetRecoveredAsRegions(t *testing.T) {
	// End-to-end with the generator: plant 3 blobs, cluster the planted
	// set, expect exactly 3 regions of roughly equal size.
	d, err := fmri.Generate(fmri.Spec{
		Name: "roi-e2e", Voxels: 512, Subjects: 3, EpochsPerSubject: 4,
		EpochLen: 12, RestLen: 2, SignalVoxels: 30, SignalBlobs: 3,
		Coupling: 0.8, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasGeometry() {
		t.Fatal("generated dataset lacks geometry")
	}
	if len(d.SignalVoxels) != 30 {
		t.Fatalf("planted %d of 30", len(d.SignalVoxels))
	}
	regions, err := Clusters(d.Dims, d.SignalVoxels, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 3 {
		t.Fatalf("want 3 planted regions, got %d", len(regions))
	}
	total := 0
	for _, r := range regions {
		if r.Size() < 8 || r.Size() > 12 {
			t.Fatalf("region size %d outside [8,12]", r.Size())
		}
		total += r.Size()
	}
	if total != 30 {
		t.Fatalf("regions cover %d of 30 planted voxels", total)
	}
}
