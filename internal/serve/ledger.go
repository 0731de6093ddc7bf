package serve

import (
	"math"

	"fcma/internal/blas"
	"fcma/internal/corr"
	"fcma/internal/mic"
	"fcma/internal/obs"
	"fcma/internal/trace"
)

// The performance ledger closes the loop between the repo's two halves:
// the analytic machine model (internal/mic + internal/trace) that
// reproduces the paper's predicted stage times, and the real pipeline the
// service just ran. After every successful job the ledger replays the
// job's shape through the model on the host-CPU configuration and
// compares prediction against the stage histograms the attempt actually
// recorded, exporting per-stage predicted/measured/drift gauges and one
// structured log record. Drift near 1 means the model still describes
// the machine; sustained drift is the earliest signal that either the
// kernels or the model regressed.

// ledgerRow is one stage comparison: the measured histogram to read and
// the model run that predicts it.
type ledgerRow struct {
	stage   string
	hist    string
	predict func(cfg mic.Config, sh trace.Shape) *mic.Machine
}

// ledgerTraceFlops bounds the flop count of one traced (scaled) stage so
// the per-job model run stays in the low milliseconds; bigger shapes are
// traced scaled-down and extrapolated by RunScaled's work ratio.
const ledgerTraceFlops = 2e8

// ledgerScale picks the trace scale for a shape: small jobs trace at
// full size, paper-sized ones shrink. GemmWork grows with V·N and Scaled
// shrinks both dimensions by the factor, so the square root hits the
// budget.
func ledgerScale(sh trace.Shape) float64 {
	w := sh.GemmWork()
	if w <= ledgerTraceFlops {
		return 1
	}
	return math.Sqrt(ledgerTraceFlops / w)
}

// ledgerShape maps a job's epoch stack to the model's task shape: the
// whole brain is the assigned voxel range (the service chunks it, but
// the stage totals cover every chunk).
func ledgerShape(stack *corr.EpochStack) (trace.Shape, bool) {
	sh := trace.Shape{
		V: stack.N, T: stack.T, M: stack.M(), E: stack.E, N: stack.N,
		TrainSamples: stack.M() - stack.E, Folds: stack.Subjects,
	}
	if stack.Subjects <= 1 {
		// Mirrors core.NewWorker's single-subject fallback to k-fold CV.
		folds := min(6, stack.M()/2)
		if folds <= 0 {
			return sh, false
		}
		sh.Folds = folds
		sh.TrainSamples = stack.M() - stack.M()/folds
	}
	if err := sh.Validate(); err != nil {
		return sh, false
	}
	return sh, true
}

// ledgerRows returns the comparable stages for an engine. Only stages
// the pipeline timed under a dedicated histogram appear: the optimized
// engine's merged stage-1+2 pass and batched kernel precompute, the
// baseline's separated correlate and normalize passes (its per-voxel
// kernel products hide inside the SVM stage and have no isolated
// measurement to compare).
func ledgerRows(engine string) []ledgerRow {
	if engine == "baseline" {
		return []ledgerRow{
			{
				stage: "correlate", hist: "stage_corr_correlate_seconds",
				predict: func(cfg mic.Config, sh trace.Shape) *mic.Machine {
					return trace.RunScaled(cfg, sh, ledgerScale(sh), trace.Shape.GemmWork, trace.GemmBaseline)
				},
			},
			{
				stage: "normalize", hist: "stage_corr_normalize_seconds",
				predict: func(cfg mic.Config, sh trace.Shape) *mic.Machine {
					return trace.RunScaled(cfg, sh, ledgerScale(sh), trace.Shape.NormWork, trace.NormalizeBaseline)
				},
			},
		}
	}
	return []ledgerRow{
		{
			stage: "merged", hist: "stage_corr_merged_seconds",
			predict: func(cfg mic.Config, sh trace.Shape) *mic.Machine {
				return trace.RunScaled(cfg, sh, ledgerScale(sh),
					func(s trace.Shape) float64 { return s.GemmWork() + s.NormWork() },
					func(m *mic.Machine, s trace.Shape) { trace.StagesMerged(m, s, blas.DefaultColBlock) })
			},
		},
		{
			stage: "syrk", hist: "stage_core_syrk_seconds",
			predict: func(cfg mic.Config, sh trace.Shape) *mic.Machine {
				// The service precomputes one M×M kernel per voxel over the
				// full epoch set (core.BatchSyrkContext), not the per-fold
				// TrainSamples triangle the offline tables model — so the
				// work function counts M-row products.
				work := func(s trace.Shape) float64 {
					m := float64(s.M)
					return float64(s.V) * m * (m + 1) * float64(s.N)
				}
				return trace.RunScaled(cfg, sh, ledgerScale(sh), work,
					func(m *mic.Machine, s trace.Shape) {
						trace.SyrkTallSkinny(m, s.M, s.N, blas.DefaultSyrkBlock)
						m.Counters.Scale(float64(s.V))
					})
			},
		},
	}
}

// recordLedger runs the model for the job's shape and exports the
// model-vs-measured comparison. Called after a fully successful attempt;
// jobReg holds only this job's pipeline metrics. Stages without a
// measured histogram (or a meaningful prediction) are skipped rather
// than reported as zero drift.
func (s *Service) recordLedger(jobID string, spec JobSpec, stack *corr.EpochStack, jobReg *obs.Registry) {
	sh, ok := ledgerShape(stack)
	if !ok {
		return
	}
	engine := spec.Engine
	if engine == "" {
		engine = "optimized"
	}
	snap := jobReg.Snapshot()
	cfg := mic.XeonE5_2670()
	for _, row := range ledgerRows(engine) {
		h, okh := snap.Hists[row.hist]
		if !okh || h.Count == 0 {
			continue
		}
		predicted := row.predict(cfg, sh).EstimateTime().Seconds()
		if predicted <= 0 {
			continue
		}
		measured := h.Sum
		drift := measured / predicted
		labels := []obs.Label{obs.L("stage", row.stage), obs.L("engine", engine)}
		s.reg.GaugeWith("serve_model_predicted_seconds", labels...).Set(predicted)
		s.reg.GaugeWith("serve_model_measured_seconds", labels...).Set(measured)
		s.reg.GaugeWith("serve_model_drift_ratio", labels...).Set(drift)
		s.opts.Log.Info("serve: model ledger",
			"job", jobID, "engine", engine, "stage", row.stage,
			"predicted_s", predicted, "measured_s", measured, "drift", drift)
	}
}
