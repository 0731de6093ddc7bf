package fmri

import (
	"fmt"
	"math"
	"math/rand"

	"fcma/internal/tensor"
)

// Spec describes a synthetic dataset to generate. The planted structure
// follows the FCMA premise: a subset of "signal" voxels whose pairwise
// temporal coupling depends on the experimental condition, embedded in a
// brain of independent-noise voxels. Correlation-based analysis can detect
// the signal voxels; activity-level analysis cannot (their marginal
// distribution is identical across conditions).
type Spec struct {
	// Name labels the generated dataset.
	Name string
	// Voxels is the brain size N.
	Voxels int
	// Subjects is the number of subjects.
	Subjects int
	// EpochsPerSubject is the number of labeled epochs per subject
	// (half per condition; must be even).
	EpochsPerSubject int
	// EpochLen is the number of time points per epoch.
	EpochLen int
	// RestLen is the number of unlabeled time points between epochs
	// (fMRI designs interleave task blocks with rest).
	RestLen int
	// SignalVoxels is the number of voxels with planted condition-
	// dependent connectivity.
	SignalVoxels int
	// SignalBlobs, when positive, plants the signal voxels as that many
	// spatially contiguous blobs on the acquisition grid instead of
	// spreading them evenly — the realistic case, where informative
	// voxels form anatomical regions that ROI clustering should recover.
	SignalBlobs int
	// Coupling is the latent-signal mixing weight ρ ∈ [0,1) for signal
	// voxels in condition 1. Their pairwise Pearson correlation
	// approaches ρ² in condition 1 and 0 in condition 0.
	Coupling float64
	// Seed drives the deterministic generator.
	Seed int64
}

// FaceSceneSpec returns a Spec with the shape of the paper's face-scene
// dataset (Table 2: 34,470 voxels, 18 subjects, 216 epochs, length 12),
// scaled by the given factor in the voxel dimension and subject count.
// scale=1 reproduces the paper shape; the test suite uses small scales.
func FaceSceneSpec(scale float64) Spec {
	return scaleSpec(Spec{
		Name:             "face-scene",
		Voxels:           34470,
		Subjects:         18,
		EpochsPerSubject: 12, // 216 epochs / 18 subjects
		EpochLen:         12,
		RestLen:          6,
		SignalVoxels:     200,
		Coupling:         0.8,
		Seed:             20151115,
	}, scale)
}

// AttentionSpec returns a Spec with the shape of the paper's attention
// dataset (Table 2: 25,260 voxels, 30 subjects, 540 epochs, length 12),
// scaled as in FaceSceneSpec.
func AttentionSpec(scale float64) Spec {
	return scaleSpec(Spec{
		Name:             "attention",
		Voxels:           25260,
		Subjects:         30,
		EpochsPerSubject: 18, // 540 epochs / 30 subjects
		EpochLen:         12,
		RestLen:          6,
		SignalVoxels:     150,
		Coupling:         0.8,
		Seed:             20141100,
	}, scale)
}

func scaleSpec(s Spec, scale float64) Spec {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	s.Voxels = maxInt(16, int(float64(s.Voxels)*scale))
	s.Subjects = maxInt(3, int(float64(s.Subjects)*math.Sqrt(scale)))
	s.SignalVoxels = maxInt(8, int(float64(s.SignalVoxels)*scale))
	if s.SignalVoxels > s.Voxels/2 {
		s.SignalVoxels = s.Voxels / 2
	}
	if s.EpochsPerSubject%2 == 1 {
		s.EpochsPerSubject++
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Generate builds the synthetic dataset described by s.
//
// Every voxel's baseline activity is white Gaussian noise. During an epoch
// of condition 1, the signal voxels additionally mix in a shared latent
// time series with weight ρ (x = ρ·l + √(1−ρ²)·ε), so their pairwise
// correlation rises to ≈ρ² while their variance stays 1. In condition 0
// they stay independent. Rest periods separate epochs.
func Generate(s Spec) (*Dataset, error) {
	if err := checkSpec(s); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))

	perSubjectTime := s.EpochsPerSubject*(s.EpochLen+s.RestLen) + s.RestLen
	total := perSubjectTime * s.Subjects
	d := &Dataset{
		Name:     s.Name,
		Subjects: s.Subjects,
		Dims:     gridFor(s.Voxels),
	}
	d.Data = newNoiseMatrix(rng, s.Voxels, total)

	if s.SignalBlobs > 0 {
		d.SignalVoxels = blobIndices(d.Dims, s.SignalVoxels, s.SignalBlobs, s.Voxels)
	} else {
		// Signal voxels are spread through the brain rather than clustered
		// at the front, so voxel-range task partitioning exercises mixed
		// tasks.
		d.SignalVoxels = spreadIndices(s.SignalVoxels, s.Voxels)
	}

	mix := float32(s.Coupling)
	keep := float32(math.Sqrt(1 - s.Coupling*s.Coupling))
	latent := make([]float32, s.EpochLen)

	for subj := 0; subj < s.Subjects; subj++ {
		base := subj * perSubjectTime
		col := base + s.RestLen
		for ep := 0; ep < s.EpochsPerSubject; ep++ {
			label := ep % 2
			e := Epoch{Subject: subj, Label: label, Start: col, Len: s.EpochLen}
			d.Epochs = append(d.Epochs, e)
			if label == 1 {
				for t := range latent {
					latent[t] = float32(rng.NormFloat64())
				}
				for _, v := range d.SignalVoxels {
					row := d.Data.Row(v)
					for t := 0; t < s.EpochLen; t++ {
						row[col+t] = keep*row[col+t] + mix*latent[t]
					}
				}
			}
			col += s.EpochLen + s.RestLen
		}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("fmri: generated dataset invalid: %w", err)
	}
	return d, nil
}

func checkSpec(s Spec) error {
	switch {
	case s.Voxels <= 0:
		return fmt.Errorf("fmri: spec needs voxels > 0, got %d", s.Voxels)
	case s.Subjects <= 0:
		return fmt.Errorf("fmri: spec needs subjects > 0, got %d", s.Subjects)
	case s.EpochsPerSubject <= 0 || s.EpochsPerSubject%2 != 0:
		return fmt.Errorf("fmri: spec needs a positive even epochs/subject, got %d", s.EpochsPerSubject)
	case s.EpochLen < 2:
		return fmt.Errorf("fmri: spec needs epoch length >= 2, got %d", s.EpochLen)
	case s.RestLen < 0:
		return fmt.Errorf("fmri: spec needs rest length >= 0, got %d", s.RestLen)
	case s.SignalBlobs < 0:
		return fmt.Errorf("fmri: spec needs signal blobs >= 0, got %d", s.SignalBlobs)
	case s.SignalVoxels < 0 || s.SignalVoxels > s.Voxels:
		return fmt.Errorf("fmri: spec needs 0 <= signal voxels <= voxels, got %d of %d", s.SignalVoxels, s.Voxels)
	case s.Coupling < 0 || s.Coupling >= 1:
		return fmt.Errorf("fmri: spec needs coupling in [0,1), got %g", s.Coupling)
	}
	return nil
}

func newNoiseMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// spreadIndices returns k indices evenly spread over [0, n).
func spreadIndices(k, n int) []int {
	if k <= 0 {
		return nil
	}
	out := make([]int, 0, k)
	step := float64(n) / float64(k)
	for i := 0; i < k; i++ {
		idx := int(float64(i) * step)
		if idx >= n {
			idx = n - 1
		}
		out = append(out, idx)
	}
	return out
}

// gridFor returns a near-cubic acquisition grid holding at least n voxels.
func gridFor(n int) [3]int {
	x := 1
	for x*x*x < n {
		x++
	}
	y := x
	z := (n + x*y - 1) / (x * y)
	return [3]int{x, y, z}
}

// blobIndices plants total signal voxels as `blobs` contiguous spherical
// regions on the grid, with blob centers spread through the volume. Only
// grid positions below n (the real voxel count; the grid may overhang) are
// used.
func blobIndices(dims [3]int, total, blobs, n int) []int {
	if total <= 0 || blobs <= 0 {
		return nil
	}
	if blobs > total {
		blobs = total
	}
	perBlob := total / blobs
	extra := total % blobs
	used := make(map[int]bool, total)
	var out []int
	for bi := 0; bi < blobs; bi++ {
		// Centers march along the grid diagonal so blobs stay spatially
		// separated (flat-index spreading can put centers in adjacent
		// planes).
		f := (float64(bi) + 0.5) / float64(blobs)
		c := [3]int{
			int(f * float64(dims[0]-1)),
			int(f * float64(dims[1]-1)),
			int(f * float64(dims[2]-1)),
		}
		center := c[0] + dims[0]*(c[1]+dims[1]*c[2])
		if center >= n {
			center = n - 1
		}
		quota := perBlob
		if bi < extra {
			quota++
		}
		out = append(out, growBlob(dims, center, quota, n, used)...)
	}
	sortInts(out)
	return out
}

// growBlob BFS-expands from center over the 6-neighbourhood until quota
// voxels are collected (skipping already-used and out-of-brain positions).
func growBlob(dims [3]int, center, quota, n int, used map[int]bool) []int {
	var out []int
	queue := []int{center}
	seen := map[int]bool{center: true}
	for len(queue) > 0 && len(out) < quota {
		v := queue[0]
		queue = queue[1:]
		if v < n && !used[v] {
			used[v] = true
			out = append(out, v)
		}
		c := coordOf(dims, v)
		for _, d := range [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
			nc := [3]int{c[0] + d[0], c[1] + d[1], c[2] + d[2]}
			if nc[0] < 0 || nc[0] >= dims[0] || nc[1] < 0 || nc[1] >= dims[1] || nc[2] < 0 || nc[2] >= dims[2] {
				continue
			}
			ni := nc[0] + dims[0]*(nc[1]+dims[1]*nc[2])
			if !seen[ni] {
				seen[ni] = true
				queue = append(queue, ni)
			}
		}
	}
	return out
}

func coordOf(dims [3]int, v int) [3]int {
	return [3]int{v % dims[0], (v / dims[0]) % dims[1], v / (dims[0] * dims[1])}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
