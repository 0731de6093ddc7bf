package report

import (
	"fmt"
	"math"
	"time"

	"fcma/internal/blas"
	"fcma/internal/core"
	"fcma/internal/fmri"
	"fcma/internal/mic"
	"fcma/internal/mic/access"
	"fcma/internal/obs"
)

// ledgerRow is one stage comparison: the histogram the pipeline times the
// stage under, and the parts — run through the model one after the other,
// their times added — that predict it.
type ledgerRow struct {
	stage, hist string
	parts       []ledgerPart
}

// ledgerPart is one modelled pass: its work function and access driver.
type ledgerPart struct {
	work   func(access.Shape) float64
	driver func(*mic.Machine, access.Shape)
}

// ledgerEngines lists the comparable stages: only those the pipeline times
// under a dedicated histogram (the baseline's per-voxel kernel products hide
// inside its SVM stage and have no isolated measurement to compare).
var ledgerEngines = []struct {
	name   string
	worker workerFunc
	rows   []ledgerRow
}{
	// The task runs stages 1+2 and the kernel precompute as one stage
	// (corr.Pipeline.RunKernels) under one histogram; the model has no
	// fused driver, so the prediction is the merged stage followed by the
	// per-voxel syrk (buffer write and re-read included).
	{"optimized", optimizedWorker, []ledgerRow{
		{"fused", "stage_corr_fused_seconds", []ledgerPart{
			{func(s access.Shape) float64 { return s.GemmWork() + s.NormWork() },
				func(m *mic.Machine, s access.Shape) { access.StagesMerged(m, s, blas.DefaultColBlock) }},
			// One M×M kernel per voxel over the full epoch set, not the
			// per-fold TrainSamples triangle the offline tables model — so
			// work counts M-row products.
			{func(s access.Shape) float64 { return float64(s.V) * float64(s.M) * float64(s.M+1) * float64(s.N) },
				func(m *mic.Machine, s access.Shape) {
					access.SyrkTallSkinny(m, s.M, s.N, blas.DefaultSyrkBlock)
					m.Counters.Scale(float64(s.V))
				}},
		}},
	}},
	{"baseline", baselineWorker, []ledgerRow{
		{"correlate", "stage_corr_correlate_seconds", []ledgerPart{{access.Shape.GemmWork, access.GemmBaseline}}},
		{"normalize", "stage_corr_normalize_seconds", []ledgerPart{{access.Shape.NormWork, access.NormalizeBaseline}}},
	}},
}

// ledgerTraceFlops bounds the stage-1 flop count of one traced shape; bigger
// shapes are traced scaled-down (GemmWork grows with V·N and Scaled shrinks
// both, hence the square root) and extrapolated by RunScaled's work ratio.
const ledgerTraceFlops = 2e8

// NativeLedger sets the machine model beside the real pipeline: per dataset
// shape and engine it runs one task on its own registry, replays the task's
// shape through the mic.XeonE5_2670 model, and reports each stage's
// predicted and measured time and drift = measured / predicted. The host is
// not that Xeon and small tasks are bound by overheads the model leaves out,
// so drift is a trend line between commits on one machine, not an oracle.
func NativeLedger(opt NativeOptions) (*Table, error) {
	model := mic.XeonE5_2670()
	t := &Table{
		Title:   fmt.Sprintf("Native model ledger: %s predicted vs host measured (scale=%.3f)", model.Name, opt.scale()),
		Headers: []string{"dataset", "engine", "stage", "predicted", "measured", "drift"},
	}
	for _, spec := range []fmri.Spec{fmri.FaceSceneSpec(opt.scale()), fmri.AttentionSpec(opt.scale())} {
		stack, err := nativeStack(spec)
		if err != nil {
			return nil, err
		}
		task := core.Task{V0: 0, V: min(120, stack.N)}
		sh := access.Shape{
			V: task.V, T: stack.T, M: stack.M(), E: stack.E, N: stack.N,
			TrainSamples: stack.M() - stack.E, Folds: stack.Subjects,
		}
		scale := math.Sqrt(min(1, ledgerTraceFlops/sh.GemmWork()))
		for _, eng := range ledgerEngines {
			reg := obs.NewRegistry()
			if _, err := runTask(eng.worker, stack, task, reg); err != nil {
				return nil, err
			}
			hists := reg.Snapshot().Hists
			for _, row := range eng.rows {
				var predicted time.Duration
				for _, part := range row.parts {
					predicted += access.RunScaled(model, sh, scale, part.work, part.driver).EstimateTime()
				}
				predicted = predicted.Round(time.Microsecond)
				measured := time.Duration(hists[row.hist].Sum * float64(time.Second)).Round(time.Microsecond)
				t.AddRow(spec.Name, eng.name, row.stage, predicted.String(), measured.String(),
					speedup(float64(measured)/float64(predicted)))
			}
		}
	}
	return t, nil
}
