// Package fcma is the public API of this Full Correlation Matrix Analysis
// (FCMA) library, a reproduction of Wang et al., "Full correlation matrix
// analysis of fMRI data on Intel® Xeon Phi™ coprocessors" (SC '15).
//
// FCMA exhaustively examines voxel-to-voxel interactions in fMRI data: for
// every voxel it asks how well that voxel's whole-brain correlation
// patterns, computed per labeled time epoch, distinguish experimental
// conditions under cross-validated linear SVM classification. High-scoring
// voxels form regions of interest whose interactions carry task
// information even when their activity levels do not.
//
// The package offers the two analyses of the paper's evaluation:
//
//   - OfflineAnalysis: nested leave-one-subject-out cross-validation over
//     a multi-subject dataset — voxel selection on the inner folds, a
//     final classifier verified on each outer fold's held-out subject.
//   - OnlineAnalysis: single-subject voxel selection and classifier
//     training, the building block of closed-loop real-time fMRI.
//
// Both run on the paper's optimized engine (tall-skinny blocking, fused
// pipeline stages, PhiSVM); the baseline it is measured against is run by
// `fcma-bench native-fig9` and the package benchmarks, not by an analysis.
//
// Around the two analyses sit the rest of a working FCMA toolkit:
// SelectVoxels / SelectVoxelsDistributed (whole-brain ranking, locally or
// through the master–worker runtime), SelectVoxelsByActivity (the
// conventional activity-MVPA comparator), FindROIs (spatial clustering of
// selected voxels), PermutationTest (label-permutation significance),
// RunClosedLoop (streaming per-epoch feedback), NIfTI-1 and binary dataset
// I/O, and AccuracyMap overlays for neuroimaging viewers.
package fcma

import (
	"context"
	"fmt"
	"io"

	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/nifti"
	"fcma/internal/obs/trace"
	"fcma/internal/svm"
)

// Data is an fMRI dataset ready for analysis.
type Data struct {
	ds *fmri.Dataset
}

// Name returns the dataset's name.
func (d *Data) Name() string { return d.ds.Name }

// Voxels returns the brain size.
func (d *Data) Voxels() int { return d.ds.Voxels() }

// Subjects returns the number of subjects.
func (d *Data) Subjects() int { return d.ds.Subjects }

// Epochs returns the number of labeled epochs.
func (d *Data) Epochs() int { return len(d.ds.Epochs) }

// SignalVoxels returns the planted ground-truth voxels of a synthetic
// dataset (nil for data without ground truth).
func (d *Data) SignalVoxels() []int {
	return append([]int(nil), d.ds.SignalVoxels...)
}

// Spec describes a synthetic dataset; see Generate.
type Spec = fmri.Spec

// Generate builds a synthetic dataset with planted condition-dependent
// connectivity structure (the ground truth FCMA should recover).
func Generate(s Spec) (*Data, error) {
	ds, err := fmri.Generate(s)
	if err != nil {
		return nil, err
	}
	return &Data{ds: ds}, nil
}

// FaceSceneShaped returns a dataset with the shape of the paper's
// face-scene dataset (Table 2), scaled by the given factor (1 = paper
// size, smaller for quick runs).
func FaceSceneShaped(scale float64) (*Data, error) {
	return Generate(fmri.FaceSceneSpec(scale))
}

// AttentionShaped returns a dataset with the shape of the paper's
// attention dataset (Table 2), scaled.
func AttentionShaped(scale float64) (*Data, error) {
	return Generate(fmri.AttentionSpec(scale))
}

// Save writes the dataset (activity data and epoch labels) to the two
// writers in the library's binary and text formats.
func (d *Data) Save(data, epochs io.Writer) error {
	if err := fmri.WriteData(data, d.ds); err != nil {
		return fmt.Errorf("fcma: saving data: %w", err)
	}
	if err := fmri.WriteEpochs(epochs, d.ds.Epochs); err != nil {
		return fmt.Errorf("fcma: saving epochs: %w", err)
	}
	return nil
}

// Load reads a dataset saved with Save.
func Load(data, epochs io.Reader) (*Data, error) {
	ds, err := fmri.Read(data, epochs)
	if err != nil {
		return nil, fmt.Errorf("fcma: loading dataset: %w", err)
	}
	return &Data{ds: ds}, nil
}

// Subject extracts a single subject's data as its own dataset (for online
// analysis).
func (d *Data) Subject(s int) (*Data, error) {
	if s < 0 || s >= d.ds.Subjects {
		return nil, fmt.Errorf("fcma: subject %d of %d", s, d.ds.Subjects)
	}
	return &Data{ds: d.ds.SelectSubjects([]int{s})}, nil
}

// withoutSubject returns the dataset minus one subject (outer CV folds).
func (d *Data) withoutSubject(s int) *Data {
	keep := make([]int, 0, d.ds.Subjects-1)
	for i := 0; i < d.ds.Subjects; i++ {
		if i != s {
			keep = append(keep, i)
		}
	}
	return &Data{ds: d.ds.SelectSubjects(keep)}
}

// Config controls an analysis run.
type Config struct {
	// Workers bounds goroutine parallelism; 0 means GOMAXPROCS.
	Workers int
	// TopK is the number of voxels selected for the final classifier;
	// 0 selects a default of 10% of the brain (capped at 100).
	TopK int
	// SVMCost is the SVM box constraint C; 0 selects the default (1).
	SVMCost float64
	// Sanitize selects how NaN/Inf samples and zero-variance voxels are
	// handled before correlation; the default SanitizeOff performs no
	// pass (degenerate correlations are defined as 0). Under
	// SanitizeDropVoxel, returned voxel indices still refer to the
	// original dataset numbering.
	Sanitize SanitizePolicy
	// Metrics, when non-nil, receives the run's stage timings and
	// counters in isolation; nil records to DefaultMetrics().
	Metrics *Metrics
	// Trace, when non-nil, records a span timeline of the run (stage
	// boundaries, kernel blocks, per-voxel cross-validation, cluster
	// tasks); drain it with Drain and render with WriteTrace. Nil disables
	// tracing at zero allocation cost.
	Trace *Tracer
}

// traceCtx installs cfg.Trace into ctx so the internal layers pick it up;
// a nil tracer leaves ctx untouched (tracing off).
func (c Config) traceCtx(ctx context.Context) context.Context {
	return trace.NewContext(ctx, c.Trace)
}

func (c Config) topK(voxels int) int {
	if c.TopK > 0 {
		return c.TopK
	}
	return max(1, min(voxels/10, 100))
}

func (c Config) coreConfig() core.Config {
	cc := core.Optimized()
	cc.Workers = c.Workers
	cc.Trainer = c.trainer()
	cc.Obs = c.Metrics
	return cc
}

// trainer returns the SVM solver with the configured box constraint — the
// one place SVMCost turns into a trainer, so voxel selection, the final
// classifier, the activity comparator and the permutation test cannot
// disagree on it.
func (c Config) trainer() svm.KernelTrainer {
	return svm.PhiSVM{Params: svm.Params{C: c.SVMCost}}
}

// VoxelScore is a voxel and its cross-validated classification accuracy.
type VoxelScore = core.VoxelScore

// SelectVoxels runs the three-stage FCMA pipeline over the whole brain and
// returns every voxel's accuracy, sorted descending — the paper's voxel
// selection step.
func SelectVoxels(d *Data, cfg Config) ([]VoxelScore, error) {
	return SelectVoxelsContext(context.Background(), d, cfg)
}

// SelectVoxelsContext is SelectVoxels with cooperative cancellation: a
// cancelled ctx stops every pipeline goroutine at its next checkpoint
// (one epoch in the correlation stage, one voxel's kernel matrix in the
// batched precompute, one voxel in cross-validation), joins them all, and
// returns ctx.Err(). A panic anywhere in the pipeline surfaces as a
// *PipelineError instead of crashing the process.
func SelectVoxelsContext(ctx context.Context, d *Data, cfg Config) ([]VoxelScore, error) {
	ctx = cfg.traceCtx(ctx)
	stack, report, err := prepare(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	worker, err := core.NewWorker(cfg.coreConfig(), stack, nil)
	if err != nil {
		return nil, err
	}
	scores, err := worker.ProcessContext(ctx, core.Task{V0: 0, V: stack.N})
	if err != nil {
		return nil, err
	}
	scores = remapScores(scores, report)
	return core.TopVoxels(scores, 0), nil
}

// prepare is the front half of every whole-brain selection, local or
// distributed: apply cfg.Sanitize, validate, build the epoch stack. The
// report's Kept mapping (if any) is what remapScores translates result
// voxel indices back to d's numbering with.
func prepare(ctx context.Context, d *Data, cfg Config) (*corr.EpochStack, *fmri.SanitizeReport, error) {
	ds := d.ds
	var report *fmri.SanitizeReport
	if cfg.Sanitize != SanitizeOff {
		var err error
		if ds, report, err = fmri.SanitizeDataset(ds, cfg.Sanitize); err != nil {
			return nil, nil, fmt.Errorf("fcma: %w", err)
		}
	}
	// Validate up front so the shape invariants the internal kernels
	// assume (and would otherwise panic on) are checked with real error
	// messages before any goroutine spawns.
	if err := ds.Validate(); err != nil {
		return nil, nil, fmt.Errorf("fcma: invalid dataset: %w", err)
	}
	stack, err := corr.BuildEpochStackContext(ctx, ds, cfg.Workers)
	return stack, report, err
}

// remapScores rewrites voxel indices of a DropVoxel run back to the
// original dataset numbering and returns the remapped slice (reusing its
// backing array). Scores can arrive from worker wire frames or a replayed
// journal, so an index outside the kept set is treated as corruption and
// dropped rather than trusted into a panic.
func remapScores(scores []VoxelScore, report *fmri.SanitizeReport) []VoxelScore {
	if report == nil || report.Kept == nil {
		return scores
	}
	out := scores[:0]
	for _, s := range scores {
		if s.Voxel < 0 || s.Voxel >= len(report.Kept) {
			continue
		}
		s.Voxel = report.Kept[s.Voxel]
		out = append(out, s)
	}
	return out
}

// LoadNIfTI reads a 4D NIfTI-1 time series, extracts brain voxels (an
// automatic temporal-variance mask when maskVol is nil, otherwise the
// nonzero voxels of the mask volume), and attaches the epoch labels.
// subjects gives how many subjects' scans are concatenated along time.
func LoadNIfTI(volume io.Reader, maskVol io.Reader, epochs io.Reader, name string, subjects int) (*Data, error) {
	vol, err := nifti.Read(volume)
	if err != nil {
		return nil, fmt.Errorf("fcma: reading NIfTI: %w", err)
	}
	var mask []int
	if maskVol != nil {
		mv, err := nifti.Read(maskVol)
		if err != nil {
			return nil, fmt.Errorf("fcma: reading mask: %w", err)
		}
		if mv.VoxelsPerFrame() != vol.VoxelsPerFrame() {
			return nil, fmt.Errorf("fcma: mask grid %v does not match data grid %v", mv.Dim, vol.Dim)
		}
		if mask, err = nifti.MaskVolume(mv); err != nil {
			return nil, err
		}
	} else {
		mask = nifti.MaskVariance(vol, 1e-9)
		if len(mask) == 0 {
			return nil, fmt.Errorf("fcma: automatic mask selected no voxels (flat volume?)")
		}
	}
	ds, err := nifti.ToDataset(name, vol, mask, subjects)
	if err != nil {
		return nil, err
	}
	if ds, err = fmri.WithEpochs(ds, epochs); err != nil {
		return nil, fmt.Errorf("fcma: NIfTI dataset: %w", err)
	}
	return &Data{ds: ds}, nil
}

// SaveNIfTI writes the dataset's activity as a 4D NIfTI-1 volume (zeros
// outside the brain mask) plus the epoch label text file.
func (d *Data) SaveNIfTI(volume, epochs io.Writer) error {
	vol, err := nifti.FromDataset(d.ds)
	if err != nil {
		return err
	}
	if err := nifti.Write(volume, vol); err != nil {
		return fmt.Errorf("fcma: writing NIfTI: %w", err)
	}
	if err := fmri.WriteEpochs(epochs, d.ds.Epochs); err != nil {
		return fmt.Errorf("fcma: writing epochs: %w", err)
	}
	return nil
}

// AccuracyMap renders voxel scores as a single-frame NIfTI overlay for
// visualization in standard neuroimaging viewers.
func AccuracyMap(d *Data, scores []VoxelScore, w io.Writer) error {
	m := make(map[int]float64, len(scores))
	for _, s := range scores {
		m[s.Voxel] = s.Accuracy
	}
	vol, err := nifti.ScoreMap(d.ds, m)
	if err != nil {
		return err
	}
	return nifti.Write(w, vol)
}
