// Package report regenerates every table and figure of the paper's
// evaluation section (Tables 1–8, Figures 8–11) from this repository's
// substrates: the trace drivers and machine models for the hardware-
// counter tables, the discrete-event scheduler for the cluster tables, and
// the real pipeline for native cross-checks. Each function returns a
// rendered table carrying both the reproduced values and the paper's
// published numbers so divergence is visible at a glance.
package report

import (
	"fmt"
	"sync"
	"time"

	"fcma/internal/mic"
	"fcma/internal/mic/access"
)

// Options configures the reproduction runs.
type Options struct {
	// Scale shrinks the traced problem sizes (1.0 traces the paper's full
	// shapes; the default 0.02 keeps every table affordable).
	Scale float64
	// SVMCalibration multiplies the SVM-stage counters to account for the
	// gap between the idealized SMO iteration count the traces assume and
	// the iteration counts LibSVM-family solvers exhibit on real fMRI
	// correlation data (which is barely separable). It applies to all
	// three solvers equally — it models the data, not the solver. The
	// default is 6; see EXPERIMENTS.md.
	SVMCalibration float64
}

func (o Options) svmCalibration() float64 {
	if o.SVMCalibration <= 0 {
		return 6
	}
	return o.SVMCalibration
}

func (o Options) scale() float64 {
	if o.Scale <= 0 || o.Scale > 1 {
		return 0.02
	}
	return o.Scale
}

// Runner evaluates the reproduction tables, memoizing the expensive trace
// runs (several tables share the same per-stage machines).
type Runner struct {
	opt  Options
	mu   sync.Mutex
	memo map[string]*mic.Machine
}

// New builds a Runner.
func New(opt Options) *Runner {
	return &Runner{opt: opt, memo: make(map[string]*mic.Machine)}
}

// cached runs fn once per key and returns the memoized machine.
func (o *Runner) cached(key string, fn func() *mic.Machine) *mic.Machine {
	o.mu.Lock()
	if m, ok := o.memo[key]; ok {
		o.mu.Unlock()
		return m
	}
	o.mu.Unlock()
	m := fn()
	o.mu.Lock()
	o.memo[key] = m
	o.mu.Unlock()
	return m
}

// stage runs one trace driver at the configured scale and extrapolates to
// the full shape, memoized by (machine, stage name, shape).
func (o *Runner) stage(cfg mic.Config, name string, full access.Shape, work func(access.Shape) float64, driver func(*mic.Machine, access.Shape)) *mic.Machine {
	key := fmt.Sprintf("%s|%s|%+v", cfg.Name, name, full)
	return o.cached(key, func() *mic.Machine {
		return access.RunScaled(cfg, full, o.opt.scale(), work, driver)
	})
}

// tracedFolds caps the folds actually traced for SVM stages; the counters
// are scaled back up to the true fold count.
const tracedFolds = 3

// svmStage runs one SMO trace with reduced voxels/folds and extrapolates,
// memoized.
func (o *Runner) svmStage(cfg mic.Config, name string, full access.Shape, activeVoxels int, driver func(*mic.Machine, access.Shape, access.SVMOptions)) *mic.Machine {
	key := fmt.Sprintf("%s|svm-%s|%+v|%d", cfg.Name, name, full, activeVoxels)
	return o.cached(key, func() *mic.Machine {
		traced := access.Scaled(full, o.opt.scale())
		folds := traced.Folds
		if folds > tracedFolds {
			folds = tracedFolds
		}
		traced.Folds = folds
		opts := access.SVMOptions{
			Voxels:       1,
			ActiveVoxels: activeVoxels,
		}
		m := mic.NewMachine(cfg)
		driver(m, traced, opts)
		active := m.ActiveThreads
		scale := float64(full.V) / float64(opts.Voxels) * float64(full.Folds) / float64(folds)
		m.Counters.Scale(scale * o.opt.svmCalibration())
		m.ActiveThreads = active
		return m
	})
}

// phases bundles the per-stage machines of one full task configuration.
type phases struct {
	gemm, syrk, norm, svm *mic.Machine
}

func (p phases) total() time.Duration {
	return p.gemm.EstimateTime() + p.syrk.EstimateTime() + p.norm.EstimateTime() + p.svm.EstimateTime()
}

// baselinePhases traces the baseline implementation of the full task on
// cfg. V voxels are processed per task (memory limits: 120 on face-scene,
// 60 on attention, §5.4.1), with one starved thread per voxel in the SVM
// stage.
func (o *Runner) baselinePhases(cfg mic.Config, s access.Shape) phases {
	return phases{
		gemm: o.stage(cfg, "gemm-baseline", s, access.Shape.GemmWork, access.GemmBaseline),
		syrk: o.stage(cfg, "syrk-baseline", s, access.Shape.SyrkWork, func(m *mic.Machine, sh access.Shape) {
			access.SyrkBaseline(m, sh.TrainSamples, sh.N)
			m.Counters.Scale(float64(sh.V))
		}),
		norm: o.stage(cfg, "norm-baseline", s, access.Shape.NormWork, access.NormalizeBaseline),
		svm:  o.svmStage(cfg, "libsvm", s, s.V, access.SVMLibSVM),
	}
}

// optimizedPhases traces the optimized implementation: merged stage 1+2,
// tall-skinny syrk, PhiSVM with ≥240 accumulated voxels.
func (o *Runner) optimizedPhases(cfg mic.Config, s access.Shape) phases {
	return phases{
		gemm: o.stage(cfg, "stages-merged", s, func(sh access.Shape) float64 {
			return sh.GemmWork() + sh.NormWork()
		}, func(m *mic.Machine, sh access.Shape) {
			access.StagesMerged(m, sh, 4096)
		}),
		syrk: o.stage(cfg, "syrk-tallskinny", s, access.Shape.SyrkWork, func(m *mic.Machine, sh access.Shape) {
			access.SyrkTallSkinny(m, sh.TrainSamples, sh.N, 96)
			m.Counters.Scale(float64(sh.V))
		}),
		norm: mic.NewMachine(cfg), // fused into gemm
		svm:  o.svmStage(cfg, "phisvm", s, maxInt(240, s.V), access.SVMPhi),
	}
}

// taskCost estimates the optimized per-task wall time on the coprocessor
// for the given task shape — the unit cost fed to the cluster scheduler
// model.
func (o *Runner) taskCost(s access.Shape) time.Duration {
	return o.optimizedPhases(mic.XeonPhi5110P(), s).total()
}

// scheduleFor builds the discrete-event model for an offline analysis over
// the dataset shape: tasks per fold × folds, with the paper's setup costs.
func (o *Runner) scheduleFor(s access.Shape, folds int) scheduleModel {
	tasksPerFold := (s.N + s.V - 1) / s.V
	cost := o.taskCost(s)
	return scheduleModel{
		TaskCosts: uniformTasks(tasksPerFold*folds, cost),
		Dispatch:  2 * time.Millisecond,
		Startup:   10 * time.Second,
		PerNode:   30 * time.Millisecond,
	}
}

// scheduleModelFor builds the light-startup model for online analyses
// (only one subject's data is distributed).
func scheduleModelFor(tasks int, cost time.Duration) scheduleModel {
	return scheduleModel{
		TaskCosts: uniformTasks(tasks, cost),
		Dispatch:  time.Millisecond,
		Startup:   40 * time.Millisecond,
		PerNode:   5 * time.Millisecond,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
