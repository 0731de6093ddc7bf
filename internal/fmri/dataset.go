// Package fmri models the input side of FCMA: 4D fMRI datasets (3D brain
// volumes over time) flattened to voxel×time matrices, labeled time epochs,
// a synthetic generator with planted connectivity structure, and binary /
// text file formats for datasets and epoch labels.
//
// The paper's two evaluation datasets are private; Spec values with the
// same shape are provided (FaceSceneSpec, AttentionSpec) and the generator
// plants a known condition-dependent correlation structure so analyses have
// a verifiable ground truth (see DESIGN.md §2).
package fmri

import (
	"errors"
	"fmt"
	"sort"

	"fcma/internal/tensor"
)

// Epoch is a labeled window of contiguous time points for one subject.
type Epoch struct {
	// Subject is the 0-based subject index the epoch belongs to.
	Subject int
	// Label is the experimental condition (0 or 1 for two-condition
	// designs such as face/scene or attend-left/attend-right).
	Label int
	// Start is the global column index of the first time point.
	Start int
	// Len is the number of time points in the epoch.
	Len int
}

// Dataset is a preprocessed fMRI dataset: every subject's scan concatenated
// along the time axis into one voxels×time matrix, plus the epoch windows
// of interest.
type Dataset struct {
	// Name identifies the dataset in reports.
	Name string
	// Data holds BOLD activity, one row per voxel, one column per time
	// point, subjects concatenated along columns.
	Data *tensor.Matrix
	// Epochs lists the labeled windows, ordered by subject then onset.
	Epochs []Epoch
	// Subjects is the number of subjects concatenated in Data.
	Subjects int
	// Dims is the 3D acquisition grid (x, y, z) the flat voxel index maps
	// onto, x fastest. A zero value means no geometry is known; ROI
	// clustering requires it.
	Dims [3]int
	// GridIndex optionally maps each voxel (row of Data) to its position
	// on the Dims grid when the dataset was extracted through a brain
	// mask (e.g. from NIfTI); nil means the identity mapping. Not carried
	// by the FCMA binary format — masked datasets round-trip through
	// NIfTI instead.
	GridIndex []int
	// SignalVoxels lists voxel indices with planted condition-dependent
	// connectivity (ground truth for synthetic datasets; empty for data
	// loaded from files that lack it).
	SignalVoxels []int
}

// HasGeometry reports whether the dataset carries a 3D grid.
func (d *Dataset) HasGeometry() bool {
	return d.Dims[0] > 0 && d.Dims[1] > 0 && d.Dims[2] > 0
}

// Voxels returns the number of voxels (rows of Data).
func (d *Dataset) Voxels() int { return d.Data.Rows }

// TimePoints returns the total number of time points (columns of Data).
func (d *Dataset) TimePoints() int { return d.Data.Cols }

// EpochsPerSubject returns the (uniform) number of epochs per subject, or
// an error if subjects have differing epoch counts — FCMA's within-subject
// normalization and leave-one-subject-out folds assume a uniform design.
func (d *Dataset) EpochsPerSubject() (int, error) {
	// More subjects than epochs leaves some subject without one, which is
	// already a mismatch — said before the counts are sized by a number an
	// untrusted header may have supplied.
	if d.Subjects > len(d.Epochs) {
		return 0, fmt.Errorf("fmri: %d subjects but only %d epochs", d.Subjects, len(d.Epochs))
	}
	counts := make([]int, d.Subjects)
	for _, e := range d.Epochs {
		if e.Subject < 0 || e.Subject >= d.Subjects {
			return 0, fmt.Errorf("fmri: epoch references subject %d of %d", e.Subject, d.Subjects)
		}
		counts[e.Subject]++
	}
	if d.Subjects == 0 {
		return 0, errors.New("fmri: dataset has no subjects")
	}
	first := counts[0]
	for s, c := range counts {
		if c != first {
			return 0, fmt.Errorf("fmri: subject %d has %d epochs, subject 0 has %d", s, c, first)
		}
	}
	return first, nil
}

// Validate checks the structural invariants FCMA relies on: in-range epoch
// windows, a uniform per-subject epoch count, binary labels and a uniform
// epoch length.
func (d *Dataset) Validate() error {
	if d.Data == nil || d.Data.Rows == 0 || d.Data.Cols == 0 {
		return errors.New("fmri: empty dataset")
	}
	if len(d.Epochs) == 0 {
		return errors.New("fmri: dataset has no epochs")
	}
	if err := checkEpochs(d.Epochs, d.TimePoints()); err != nil {
		return err
	}
	epochLen := d.Epochs[0].Len
	for i, e := range d.Epochs {
		if e.Label != 0 && e.Label != 1 {
			return fmt.Errorf("fmri: epoch %d has non-binary label %d", i, e.Label)
		}
		if e.Len != epochLen {
			return fmt.Errorf("fmri: epoch %d has length %d, epoch 0 has %d", i, e.Len, epochLen)
		}
	}
	if _, err := d.EpochsPerSubject(); err != nil {
		return err
	}
	for _, v := range d.SignalVoxels {
		if v < 0 || v >= d.Voxels() {
			return fmt.Errorf("fmri: signal voxel %d out of range %d", v, d.Voxels())
		}
	}
	if d.HasGeometry() && d.GridIndex == nil && d.Dims[0]*d.Dims[1]*d.Dims[2] < d.Voxels() {
		return fmt.Errorf("fmri: grid %v too small for %d voxels", d.Dims, d.Voxels())
	}
	if d.GridIndex != nil {
		if !d.HasGeometry() {
			return fmt.Errorf("fmri: grid index without grid dims")
		}
		if len(d.GridIndex) != d.Voxels() {
			return fmt.Errorf("fmri: grid index of %d entries for %d voxels", len(d.GridIndex), d.Voxels())
		}
		capacity := d.Dims[0] * d.Dims[1] * d.Dims[2]
		for i, g := range d.GridIndex {
			if g < 0 || g >= capacity {
				return fmt.Errorf("fmri: grid index %d of voxel %d outside grid %v", g, i, d.Dims)
			}
		}
	}
	return nil
}

// checkEpochs validates an epoch design against a session of timePoints
// columns: every window must be non-empty and inside the session, and no
// two epochs of the same subject may overlap (an overlapping analysis
// design double-counts time points in within-subject normalization; the
// real-time assembler, which legitimately supports overlapping designs,
// does not go through this check).
func checkEpochs(epochs []Epoch, timePoints int) error {
	for i, e := range epochs {
		if e.Len <= 0 {
			return fmt.Errorf("fmri: epoch %d (subject %d) is empty: length %d", i, e.Subject, e.Len)
		}
		if e.Start < 0 {
			return fmt.Errorf("fmri: epoch %d (subject %d) starts at negative time point %d", i, e.Subject, e.Start)
		}
		if e.Start+e.Len > timePoints {
			return fmt.Errorf("fmri: epoch %d (subject %d) window [%d,%d) outside %d time points",
				i, e.Subject, e.Start, e.Start+e.Len, timePoints)
		}
	}
	// Overlap within each subject: compare windows in onset order,
	// remembering which epoch index produced each window.
	type window struct{ idx, start, end int }
	bySubject := make(map[int][]window)
	for i, e := range epochs {
		bySubject[e.Subject] = append(bySubject[e.Subject], window{i, e.Start, e.Start + e.Len})
	}
	for subject, ws := range bySubject {
		sort.Slice(ws, func(a, b int) bool { return ws[a].start < ws[b].start })
		for i := 1; i < len(ws); i++ {
			if ws[i].start < ws[i-1].end {
				return fmt.Errorf("fmri: subject %d epochs %d and %d overlap: windows [%d,%d) and [%d,%d)",
					subject, ws[i-1].idx, ws[i].idx, ws[i-1].start, ws[i-1].end, ws[i].start, ws[i].end)
			}
		}
	}
	return nil
}

// EpochData returns the voxels×Len activity window of epoch e as a view
// sharing the dataset's backing store.
func (d *Dataset) EpochData(e Epoch) *tensor.Matrix {
	return d.Data.View(0, e.Start, d.Voxels(), e.Len)
}

// Labels returns the label of every epoch in order.
func (d *Dataset) Labels() []int {
	out := make([]int, len(d.Epochs))
	for i, e := range d.Epochs {
		out[i] = e.Label
	}
	return out
}

// SubjectOfEpoch returns, for every epoch in order, the subject it belongs
// to. Cross-validation folds are built from this.
func (d *Dataset) SubjectOfEpoch() []int {
	out := make([]int, len(d.Epochs))
	for i, e := range d.Epochs {
		out[i] = e.Subject
	}
	return out
}

// SelectSubjects returns a shallow dataset containing only the epochs of
// the given subjects (activity data is shared, epochs are re-referenced to
// a compacted subject numbering in the order given).
func (d *Dataset) SelectSubjects(subjects []int) *Dataset {
	renum := make(map[int]int, len(subjects))
	for i, s := range subjects {
		renum[s] = i
	}
	out := &Dataset{
		Name:         d.Name,
		Data:         d.Data,
		Subjects:     len(subjects),
		SignalVoxels: d.SignalVoxels,
	}
	for _, e := range d.Epochs {
		if ns, ok := renum[e.Subject]; ok {
			e.Subject = ns
			out.Epochs = append(out.Epochs, e)
		}
	}
	return out
}
