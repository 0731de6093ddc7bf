// Package access replays the memory-access and vector-instruction patterns
// of FCMA's kernel variants into a mic.Machine, regenerating the paper's
// vTune-style instrumentation (Tables 1, 5–8) without the original
// hardware. Drivers trace the stream one worker thread sees — FCMA's
// kernels partition data so threads do not share working sets — while
// accumulating whole-task instruction totals.
//
// Tracing at the paper's full problem size would take tens of billions of
// events, so drivers typically run on a scaled Shape and the harness
// extrapolates counters by the work ratio (RunScaled); miss *rates* are
// preserved because the blocking sizes stay absolute while only the long
// dimensions shrink.
package access

import "fmt"

// Shape describes one worker task (paper §3.3: 120 assigned voxels of the
// face-scene dataset).
type Shape struct {
	// V is the number of assigned voxels.
	V int
	// T is the epoch length in time points.
	T int
	// M is the total number of epochs (samples per SVM problem).
	M int
	// E is the number of epochs per subject.
	E int
	// N is the brain size in voxels.
	N int
	// TrainSamples is the per-fold SVM training set size (M − E for
	// leave-one-subject-out).
	TrainSamples int
	// Folds is the number of cross-validation folds.
	Folds int
}

// Validate checks the shape is internally consistent.
func (s Shape) Validate() error {
	switch {
	case s.V <= 0 || s.T <= 0 || s.M <= 0 || s.N <= 0:
		return fmt.Errorf("access: non-positive dimensions in %+v", s)
	case s.E <= 0 || s.M%s.E != 0:
		return fmt.Errorf("access: M=%d not divisible into E=%d epochs/subject", s.M, s.E)
	case s.TrainSamples <= 0 || s.TrainSamples > s.M:
		return fmt.Errorf("access: train samples %d of %d", s.TrainSamples, s.M)
	case s.Folds <= 0:
		return fmt.Errorf("access: folds %d", s.Folds)
	}
	return nil
}

// Subjects returns the subject count implied by M and E.
func (s Shape) Subjects() int { return s.M / s.E }

// FaceSceneTask returns the single-worker task of the paper's §3.3/§5.4
// analysis: 120 voxels of the face-scene dataset (34,470 brain voxels,
// 216 epochs of 12 time points, 18 subjects, 204 training samples per
// leave-one-subject-out fold).
func FaceSceneTask() Shape {
	return Shape{V: 120, T: 12, M: 216, E: 12, N: 34470, TrainSamples: 204, Folds: 18}
}

// AttentionTask returns the single-worker task for the attention dataset
// (25,260 voxels, 540 epochs, 30 subjects; the baseline can only fit 60
// voxels, §5.4.1 — V here is the optimized implementation's 120).
func AttentionTask() Shape {
	return Shape{V: 120, T: 12, M: 540, E: 18, N: 25260, TrainSamples: 522, Folds: 30}
}

// Scaled returns s with the brain and assigned-voxel dimensions scaled by
// f (minimums keep the shape valid); the time structure (T, E, M) is
// preserved so per-sample behaviour is unchanged.
func Scaled(s Shape, f float64) Shape {
	if f >= 1 {
		return s
	}
	s.N = maxInt(256, int(float64(s.N)*f))
	s.V = maxInt(4, int(float64(s.V)*f))
	return s
}

// GemmWork returns the flop count of the stage-1 correlation products for
// the shape (M products of [V×T]·[T×N]).
func (s Shape) GemmWork() float64 {
	return 2 * float64(s.M) * float64(s.V) * float64(s.T) * float64(s.N)
}

// SyrkWork returns the flop count of the stage-3 kernel precompute for the
// shape (V products of [TrainSamples×N]·Aᵀ, one triangle).
func (s Shape) SyrkWork() float64 {
	m := float64(s.TrainSamples)
	return float64(s.V) * m * (m + 1) * float64(s.N)
}

// NormWork returns the element count of the stage-2 normalization.
func (s Shape) NormWork() float64 {
	return float64(s.V) * float64(s.M) * float64(s.N)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
