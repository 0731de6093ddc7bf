package rt

import (
	"context"
	"fmt"

	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/tensor"
)

// OnlineSelector accumulates a single subject's epochs as they stream in
// and re-runs FCMA voxel selection on demand — the online training phase
// of the closed loop, made incremental: selection quality improves as the
// session progresses instead of waiting for the full run.
type OnlineSelector struct {
	cfg   core.Config
	stack *corr.EpochStack
	// MinPerClass is the minimum epochs per condition before Select will
	// run (cross-validation needs both classes in every training fold);
	// default 2.
	MinPerClass int
}

// NewOnlineSelector builds a selector for a brain of the given size and
// epoch length, using the given engine configuration.
func NewOnlineSelector(cfg core.Config, brainVoxels, epochLen int) (*OnlineSelector, error) {
	stack, err := corr.NewOnlineStack(brainVoxels, epochLen)
	if err != nil {
		return nil, err
	}
	return &OnlineSelector{cfg: cfg, stack: stack, MinPerClass: 2}, nil
}

// Feed adds one completed epoch window with its known training label (the
// stimulus schedule is known during the training run).
func (o *OnlineSelector) Feed(window *tensor.Matrix, label int) error {
	return o.stack.AppendEpoch(window, label)
}

// Epochs returns how many epochs have been accumulated.
func (o *OnlineSelector) Epochs() int { return o.stack.M() }

// Ready reports whether enough balanced data has arrived to select.
func (o *OnlineSelector) Ready() bool {
	return o.stack.Balanced(max(o.MinPerClass, 2))
}

// SelectContext runs whole-brain FCMA voxel selection over the epochs
// received so far, with k-fold cross-validation over epochs (the online
// regime), and returns all voxels ranked best-first. Cancellation is
// cooperative — essential for the closed loop, where a selection that
// outlives its TR budget must be abandoned before the next volume arrives.
func (o *OnlineSelector) SelectContext(ctx context.Context) ([]core.VoxelScore, error) {
	if !o.Ready() {
		return nil, fmt.Errorf("rt: need at least %d epochs per condition, have %d total", o.MinPerClass, o.stack.M())
	}
	worker, err := core.NewWorker(o.cfg, o.stack, nil)
	if err != nil {
		return nil, err
	}
	scores, err := worker.ProcessContext(ctx, core.Task{V0: 0, V: o.stack.N})
	if err != nil {
		return nil, err
	}
	return core.TopVoxels(scores, 0), nil
}
