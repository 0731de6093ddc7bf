package report

import (
	"context"
	"fmt"
	"time"

	"fcma/internal/baseline"
	"fcma/internal/cluster"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/obs"
)

// NativeOptions configures the native (really-executed, host-CPU)
// cross-check runs, which complement the machine-model tables with
// measured wall clock on scaled-down data.
type NativeOptions struct {
	// Scale shrinks the dataset (default 0.02 of paper size).
	Scale float64
	// Workers lists the in-process worker counts for the scaling run.
	Workers []int
}

// nativeTaskSize is the voxels-per-task partition of the scaling run.
const nativeTaskSize = 32

func (n NativeOptions) scale() float64 {
	if n.Scale <= 0 || n.Scale > 1 {
		return 0.02
	}
	return n.Scale
}

func (n NativeOptions) workers() []int {
	if len(n.Workers) == 0 {
		return []int{1, 2, 4, 8}
	}
	return n.Workers
}

// nativeStack generates a scaled dataset and builds its epoch stack.
func nativeStack(spec fmri.Spec) (*corr.EpochStack, error) {
	d, err := fmri.Generate(spec)
	if err != nil {
		return nil, err
	}
	return corr.BuildEpochStackContext(context.Background(), d, 0)
}

// workerFunc builds a fresh worker over stack that records into reg (nil:
// the process registry).
type workerFunc func(stack *corr.EpochStack, reg *obs.Registry) (cluster.TaskProcessor, error)

func optimizedWorker(stack *corr.EpochStack, reg *obs.Registry) (cluster.TaskProcessor, error) {
	cfg := core.Optimized()
	cfg.Obs = reg
	return core.NewWorker(cfg, stack, nil)
}

func baselineWorker(stack *corr.EpochStack, reg *obs.Registry) (cluster.TaskProcessor, error) {
	return baseline.NewWorker(stack, reg)
}

// runTask runs one task on a fresh worker and returns its wall time.
func runTask(newWorker workerFunc, stack *corr.EpochStack, task core.Task, reg *obs.Registry) (time.Duration, error) {
	w, err := newWorker(stack, reg)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := w.ProcessContext(context.Background(), task); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// NativeSpeedup measures the real optimized-vs-baseline pipeline speedup
// on scaled face-scene and attention shaped datasets — the native
// counterpart of Fig. 9, run on the host CPU.
func NativeSpeedup(opt NativeOptions) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Native Fig. 9 cross-check (host CPU, scale=%.3f)", opt.scale()),
		Headers: []string{"dataset", "baseline", "optimized", "speedup", "paper (coprocessor)"},
	}
	paper := map[string]float64{"face-scene": 5.24, "attention": 16.39}
	for _, spec := range []fmri.Spec{fmri.FaceSceneSpec(opt.scale()), fmri.AttentionSpec(opt.scale())} {
		stack, err := nativeStack(spec)
		if err != nil {
			return nil, err
		}
		task := core.Task{V0: 0, V: min(120, stack.N)}
		tb, err := runTask(baselineWorker, stack, task, nil)
		if err != nil {
			return nil, err
		}
		to, err := runTask(optimizedWorker, stack, task, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(spec.Name, ms(tb), ms(to),
			speedup(float64(tb)/float64(to)),
			speedup(paper[spec.Name]))
	}
	return t, nil
}

// NativeScaling measures real master–worker scaling with in-process
// workers — the native counterpart of Fig. 8 at host scale.
func NativeScaling(opt NativeOptions) (*Table, error) {
	stack, err := nativeStack(fmri.FaceSceneSpec(opt.scale()))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Native Fig. 8 cross-check: in-process cluster scaling (face-scene shaped, scale=%.3f)", opt.scale()),
		Headers: []string{"workers", "elapsed", "speedup"},
	}
	var t1 time.Duration
	for _, n := range opt.workers() {
		elapsed, err := runLocalCluster(stack, n, nativeTaskSize)
		if err != nil {
			return nil, err
		}
		if t1 == 0 {
			t1 = elapsed
		}
		t.AddRow(fmt.Sprintf("%d", n), ms(elapsed), speedup(float64(t1)/float64(elapsed)))
	}
	return t, nil
}

// runLocalCluster times one in-process cluster run: worker construction,
// the run, and the join.
func runLocalCluster(stack *corr.EpochStack, workers, taskSize int) (time.Duration, error) {
	start := time.Now()
	_, err := cluster.RunLocal(context.Background(), workers, stack.N, taskSize, cluster.MasterOptions{},
		func(int) (cluster.TaskProcessor, cluster.WorkerOptions, error) {
			cfg := core.Optimized()
			cfg.Workers = 1 // one goroutine per simulated node
			w, err := core.NewWorker(cfg, stack, nil)
			return w, cluster.WorkerOptions{}, err
		})
	return time.Since(start), err
}
