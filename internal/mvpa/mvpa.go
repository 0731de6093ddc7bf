// Package mvpa implements conventional activity-based multivariate
// pattern analysis — the approach FCMA generalizes beyond (paper §1, §3.1;
// Norman et al. 2006). Activity MVPA classifies conditions from the
// instantaneous BOLD amplitude of voxels within an epoch; FCMA classifies
// from voxel-to-voxel correlation patterns. The two are complementary
// diagnostics: a voxel whose activity level is condition-invariant but
// whose interactions are condition-dependent is invisible to activity
// MVPA and exactly what FCMA was designed to find.
//
// This package provides the per-voxel activity analysis as the comparator
// for FCMA's headline claim (exercised in examples/unbiased and the core
// test suite).
package mvpa

import (
	"context"
	"fmt"
	"sort"

	"fcma/internal/fmri"
	"fcma/internal/safe"
	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// VoxelScore is a voxel and its cross-validated activity-classification
// accuracy.
type VoxelScore struct {
	Voxel    int
	Accuracy float64
}

// Config controls the activity analysis.
type Config struct {
	// Trainer runs the per-voxel SVM; nil selects PhiSVM.
	Trainer svm.KernelTrainer
	// Workers bounds goroutine parallelism; 0 means GOMAXPROCS.
	Workers int
}

// SelectVoxelsContext scores every voxel by how well its within-epoch
// activity classifies the conditions: for voxel v, each epoch contributes
// one sample whose features are the epoch's T activity values relative to
// the voxel's session mean (so condition-dependent amplitude shifts survive
// while scanner offset is removed). Scores are returned sorted descending.
//
// Cancellation is checked between voxels — the checkpoint interval — and
// a panicking work item surfaces as a *safe.PipelineError instead of
// crashing the process.
func SelectVoxelsContext(ctx context.Context, d *fmri.Dataset, cfg Config) ([]VoxelScore, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	trainer := cfg.Trainer
	if trainer == nil {
		trainer = svm.PhiSVM{}
	}
	folds := svm.LeaveOneSubjectOutFolds(d.SubjectOfEpoch())
	labels := d.Labels()
	M := len(d.Epochs)
	T := d.Epochs[0].Len

	N := d.Voxels()
	scores := make([]VoxelScore, N)
	err := safe.ParallelDynamic(ctx, safe.Span{Stage: "mvpa/select"}, N, cfg.Workers, func(ictx context.Context, v int) error {
		// Samples: the voxel's epoch time courses relative to its session
		// mean.
		sessionMean := float32(tensor.Mean(d.Data.Row(v)))
		X := tensor.NewMatrix(M, T)
		for e, ep := range d.Epochs {
			src := d.Data.Row(v)[ep.Start : ep.Start+ep.Len]
			dst := X.Row(e)
			for t, val := range src {
				dst[t] = val - sessionMean
			}
		}
		K := svm.PrecomputeKernel(X)
		acc, err := svm.CrossValidateContext(ictx, trainer, K, labels, folds)
		if err != nil {
			return fmt.Errorf("mvpa: voxel %d: %w", v, err)
		}
		scores[v] = VoxelScore{Voxel: v, Accuracy: acc}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].Accuracy != scores[j].Accuracy {
			return scores[i].Accuracy > scores[j].Accuracy
		}
		return scores[i].Voxel < scores[j].Voxel
	})
	return scores, nil
}
