package report

import (
	"fmt"

	"fcma/internal/mic/access"
)

// coprocessorAppBytes is the 5110P memory available to applications
// (paper §2: 8GB on board, ~2GB to the OS).
const coprocessorAppBytes = 6 << 30

// TableMemory quantifies the memory-capacity argument of §3.3.3/§4.4: one
// voxel's correlation data (M×N float32, double-buffered between pipeline
// stages) limits how many voxels the baseline can hold on the 6GB
// coprocessor — starving the 240-thread SVM stage — while the optimized
// implementation reduces each voxel to an M×M kernel matrix and fits
// hundreds.
func (o *Runner) TableMemory() *Table {
	t := &Table{
		Title:   "Memory capacity on the 6GB coprocessor (the §3.3.3 constraint)",
		Headers: []string{"dataset", "per-voxel corr data", "baseline voxels", "per-voxel kernel", "optimized voxels", "paper"},
	}
	rows := []struct {
		name  string
		shape access.Shape
		paper string
	}{
		{"face-scene", access.FaceSceneTask(), "120 baseline / 240+ optimized"},
		{"attention", access.AttentionTask(), "60 baseline / 240+ optimized"},
	}
	for _, r := range rows {
		corrBytes := int64(r.shape.M) * int64(r.shape.N) * 4
		// The baseline keeps the correlation buffer plus the working copy
		// the separated normalization reads back (§3.3.2): 2x per voxel.
		baselineVoxels := coprocessorAppBytes / (2 * corrBytes)
		kernelBytes := int64(r.shape.M) * int64(r.shape.M) * 4
		// The optimized path streams correlation blocks (bounded scratch)
		// and retains only kernel matrices; the brain data itself is the
		// fixed cost.
		brainBytes := int64(r.shape.N) * int64(r.shape.M) * int64(r.shape.T) / int64(r.shape.M) * 4 // N×T per epoch set, negligible
		optimizedVoxels := (coprocessorAppBytes - brainBytes) / (kernelBytes + corrBytes/int64(r.shape.M))
		t.AddRow(r.name,
			fmtBytes(corrBytes),
			fmt.Sprintf("%d", baselineVoxels),
			fmtBytes(kernelBytes),
			fmt.Sprintf("%d+", min(int(optimizedVoxels), 100000)),
			r.paper)
	}
	return t
}
