package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fcma"
	"fcma/internal/blas"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/norm"
	"fcma/internal/obs"
	"fcma/internal/safe"
	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// perLayer names every per-layer metric and its unit, in report order. A
// traced run reports all of them; a row whose layer is not on the
// workload's path reads 0.
var perLayer = []struct{ name, unit string }{
	{"fmri.generate_s", "s"},
	{"corr.stack_build_s", "s/op"},
	{"corr.pipeline_s", "s/op"},
	{"corr.pipeline_share", "ratio"},
	{"corr.gemm_calls", "count/op"},
	{"corr.norm_blocks", "count/op"},
	{"corr.max_abs_err", "abs"},
	{"blas.gemm_strip_gflops", "GFLOP/s"},
	{"blas.gemm_paper_gflops", "GFLOP/s"},
	{"blas.gemm_flops", "count/op"},
	{"blas.syrk_flops", "count/op"},
	{"blas.batchsyrk_s", "s/op"},
	{"blas.syrk_gflops", "GFLOP/s"},
	{"blas.syrk_share", "ratio"},
	{"norm.fisher_zscore_melem_per_s", "Melem/s"},
	{"norm.elems", "count/op"},
	{"norm.est_share", "ratio"},
	{"svm.cv_s", "s/op"},
	{"svm.cv_share", "ratio"},
	{"svm.cv_voxel_p50_us", "us"},
	{"svm.cv_voxel_p95_us", "us"},
	{"svm.iters_per_voxel", "count"},
	{"core.task_s", "s/op"},
	{"core.task_self_s", "s/op"},
	{"core.mirror_ratio", "ratio"},
	{"safe.parallel_speedup", "ratio"},
	{"cluster.tasks", "count"},
	{"cluster.useful_task_ratio", "ratio"},
	{"cluster.worker_busy_share", "ratio"},
	{"cluster.imbalance", "ratio"},
	{"cluster.overhead_s", "s/op"},
	{"cluster.vs_local_ratio", "ratio"},
	{"serve.submit_p50_ms", "ms"},
	{"serve.wait_p50_ms", "ms"},
	{"serve.fetch_p50_ms", "ms"},
	{"serve.job_p75_s", "s"},
	{"serve.overhead_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.polls_per_job", "count"},
	{"serve.dataset_cache_hit_ratio", "ratio"},
	{"wal.fsyncs_per_job", "count"},
	{"wal.fsync_s_per_job", "s"},
	{"wal.bytes_per_job", "bytes"},
	{"wal.append_sync_p50_us", "us"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"obs.spans_per_op", "count"},
	{"fcma.alloc_mb_per_op", "MB"},
	{"fcma.gc_cycles_per_op", "count"},
	{"bench.trace_run_ratio", "ratio"},
}

// exactCounts are the per-layer rows that must repeat exactly between two
// runs of one commit on one seed: counts made by the program or computed
// from shapes, not timings.
var exactCounts = map[string]bool{
	"corr.gemm_calls": true, "corr.norm_blocks": true, "blas.gemm_flops": true,
	"blas.syrk_flops": true, "norm.elems": true, "svm.iters_per_voxel": true,
	"cluster.tasks": true,
}

// ledger collects the per-layer rows of one traced run.
type ledger struct {
	rec  *recorder
	rows map[string]float64
	// failed counts probe checks that failed; notes says which, and flags
	// rows that should not be trusted.
	failed int
	notes  []string
	// opP50 is the median of the ops run with span recording off, the base
	// of the ratio rows; ops are the walls of all measured ops, spans on or
	// off; firstRanking is what op 0 (on input 0) returned.
	opP50        float64
	ops          []float64
	firstRanking []fcma.VoxelScore
}

func (l *ledger) set(name string, v float64) { l.rows[name] = v }

func (l *ledger) fail(format string, args ...any) {
	l.failed++
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

// metrics renders every per-layer row, 0 for the ones no probe filled.
func (l *ledger) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{l.rows[m.name], m.unit}
	}
	return out
}

// runTraced produces the per-layer rows of one workload. A fifth of d goes
// to a closed loop without spans, three tenths to one with the benchmark's
// spans on, and the rest to the layer probes; the probes are sized to the
// workload, so the run ends near d but is not cut off at it.
func runTraced(ctx context.Context, w workload, e *env, d time.Duration, tracePath string) (_ *result, notes []string, err error) {
	sys, err := w.setup(ctx, e)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := sys.close(); err == nil {
			err = cerr
		}
	}()
	l := &ledger{rec: &recorder{lanes: sys.clients}, rows: make(map[string]float64)}
	l.set("fmri.generate_s", sys.generateS)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := measure(ctx, e, sys, d/5, nil)
	runtime.ReadMemStats(&after)
	spanned := measure(ctx, e, sys, 3*d/10, l.rec)
	samples := append(plain, spanned...)
	j, err := judge(ctx, w, e, sys, samples)
	if err != nil {
		return nil, nil, err
	}
	spannedOps := opSeconds(spanned)
	l.opP50, l.ops = median(opSeconds(plain)), opSeconds(samples)
	for _, s := range plain {
		if s.i == 0 {
			l.firstRanking = s.out.scores
		}
	}
	if l.opP50 == 0 || len(spannedOps) == 0 {
		return nil, j.notes, fmt.Errorf("no op completed: nothing to measure")
	}
	l.set("fcma.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(len(plain)))
	l.set("fcma.gc_cycles_per_op", float64(after.NumGC-before.NumGC)/float64(len(plain)))
	l.set("bench.trace_run_ratio", median(spannedOps)/l.opP50)

	if sys.tracedOp != nil {
		dur, spans, err := sys.tracedOp(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("op with the program's tracer on: %w", err)
		}
		l.set("obs.trace_overhead_ratio", dur.Seconds()/l.opP50)
		l.set("obs.spans_per_op", float64(spans))
	}
	if sys.serialOp != nil {
		dur, err := sys.serialOp(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("single-threaded op: %w", err)
		}
		l.set("safe.parallel_speedup", dur.Seconds()/l.opP50)
	}
	if err := mirrorLayers(ctx, l, sys, d/4); err != nil {
		return nil, nil, fmt.Errorf("mirror task: %w", err)
	}
	if sys.layers != nil {
		if err := sys.layers(ctx, l); err != nil {
			return nil, nil, err
		}
	}
	if err := l.rec.write(tracePath); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	res := &result{
		Correct:   j.failed+l.failed == 0,
		Attempted: len(samples),
		Failed:    j.failed + l.failed,
		Metrics:   l.metrics(),
	}
	return res, append(j.notes, l.notes...), nil
}

// mirrorRun is one pass over an op's tasks, each done twice: re-composed
// from the layers' public calls under spans (the mirror), and by the real
// core.Worker.
type mirrorRun struct {
	stackS, pipelineS, syrkS, cvS, taskS, selfS, realS float64
	cvVoxel                                            []float64 // seconds per voxel
	counters                                           map[string]uint64
	maxAbsErr                                          float64
	iters                                              int
}

// mirrorLayers fills the corr, blas, norm, svm and core rows from the
// workload's first input. It repeats the mirror pass while the time budget
// lasts (once at least, three times at most) and keeps the fastest.
func mirrorLayers(ctx context.Context, l *ledger, sys *system, budget time.Duration) error {
	ds, err := sys.inputs[0].dataset()
	if err != nil {
		return err
	}
	var best *mirrorRun
	start := time.Now()
	for rep := 0; rep < 3 && (rep == 0 || time.Since(start) < budget); rep++ {
		m, err := mirrorPass(ctx, l, ds, sys.shape, rep)
		if err != nil {
			return err
		}
		if best == nil {
			// The accuracy and iteration probes run on the first pass only.
			best = m
		} else if m.taskS < best.taskS {
			m.maxAbsErr, m.iters = best.maxAbsErr, best.iters
			best = m
		}
	}
	m := best
	N, M, T, E := ds.Voxels(), len(ds.Epochs), ds.Epochs[0].Len, len(ds.Epochs)/ds.Subjects
	l.set("corr.stack_build_s", m.stackS)
	l.set("corr.pipeline_s", m.pipelineS)
	l.set("corr.pipeline_share", m.pipelineS/m.taskS)
	l.set("corr.gemm_calls", float64(m.counters["corr_gemm_calls_total"]))
	l.set("corr.norm_blocks", float64(m.counters["corr_norm_blocks_total"]))
	l.set("corr.max_abs_err", m.maxAbsErr)
	if m.maxAbsErr > maxCorrErr {
		l.fail("corr.max_abs_err %.2e above %.0e: the merged stage disagrees with float64 Pearson, atanh, z-score", m.maxAbsErr, maxCorrErr)
	}
	syrkFlops := float64(N) * float64(blas.SyrkFlops(M, N))
	l.set("blas.gemm_flops", float64(M)*float64(blas.GemmFlops(N, T, N)))
	l.set("blas.syrk_flops", syrkFlops)
	l.set("blas.batchsyrk_s", m.syrkS)
	l.set("blas.syrk_gflops", syrkFlops/m.syrkS/1e9)
	l.set("blas.syrk_share", m.syrkS/m.taskS)
	l.set("svm.cv_s", m.cvS)
	l.set("svm.cv_share", m.cvS/m.taskS)
	l.set("svm.cv_voxel_p50_us", median(m.cvVoxel)*1e6)
	l.set("svm.cv_voxel_p95_us", percentile(m.cvVoxel, 95)*1e6)
	l.set("svm.iters_per_voxel", float64(m.iters)/float64(N))
	l.set("core.task_s", m.realS)
	l.set("core.task_self_s", m.selfS)
	l.set("core.mirror_ratio", m.taskS/m.realS)
	if r := m.taskS / m.realS; r < 0.9 || r > 1.1 {
		l.notes = append(l.notes, fmt.Sprintf("core.mirror_ratio %.3f outside 0.9-1.1: the corr, blas, svm and core rows describe a different program", r))
	}

	cb := min(blas.DefaultColBlock, N)
	rate := fisherRate(E, cb)
	elems := float64(N) * float64(M) * float64(N)
	l.set("blas.gemm_strip_gflops", gemmRate(corr.DefaultVoxBlock, T, cb, E))
	l.set("blas.gemm_paper_gflops", gemmRate(120, T, N, 1))
	l.set("norm.fisher_zscore_melem_per_s", rate/1e6)
	l.set("norm.elems", elems)
	l.set("norm.est_share", elems/rate/float64(sys.shape.workers)/m.pipelineS)
	return nil
}

// maxCorrErr is the largest absolute error the merged stage's output may
// show against the float64 reference before the run counts as wrong.
const maxCorrErr = 1e-3

// mirror is one pass over an op's tasks on one dataset.
type mirror struct {
	l      *ledger
	op     *active
	run    *mirrorRun
	cfg    core.Config
	stack  *corr.EpochStack
	folds  []svm.Fold
	labels []int
	// raw, on the first pass only, is the dataset's activity matrix: the
	// stage-2 buffer is checked against it and SMO iterations are counted.
	raw *tensor.Matrix
}

// mirrorPass runs every task of one op on ds, mirror then real.
func mirrorPass(ctx context.Context, l *ledger, ds *fmri.Dataset, sh taskShape, rep int) (*mirrorRun, error) {
	mi := &mirror{l: l, op: l.rec.root("mirror.op", rep), run: &mirrorRun{}, labels: ds.Labels()}
	defer mi.op.end()
	if rep == 0 {
		mi.raw = ds.Data
	}

	sp := mi.op.child("corr.stack_build")
	stack, err := corr.BuildEpochStackContext(ctx, ds, sh.workers)
	mi.run.stackS = sp.end()
	if err != nil {
		return nil, err
	}
	mi.stack = stack
	// The folds fcma.SelectVoxels and serve hand core.NewWorker: k-fold over
	// epochs for one subject, leave-one-subject-out otherwise.
	if ds.Subjects == 1 {
		mi.folds = svm.KFolds(stack.M(), min(6, stack.M()/2))
	} else {
		mi.folds = svm.LeaveOneSubjectOutFolds(ds.SubjectOfEpoch())
	}
	mi.cfg = core.Optimized()
	mi.cfg.Workers = sh.workers
	mi.cfg.Obs = obs.NewRegistry()
	real := mi.cfg
	real.Obs = obs.NewRegistry()
	worker, err := core.NewWorker(real, stack, mi.folds)
	if err != nil {
		return nil, err
	}
	for v0 := 0; v0 < stack.N; v0 += sh.taskVoxels {
		task := core.Task{V0: v0, V: min(sh.taskVoxels, stack.N-v0)}
		// Collect before each side so neither pays for the other's buffer.
		runtime.GC()
		scores, err := mi.task(ctx, task)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		sp := mi.op.child("core.task_real")
		want, err := worker.ProcessContext(ctx, task)
		mi.run.realS += sp.end()
		if err != nil {
			return nil, err
		}
		err = sameRanking(scores, want)
		if sh.workers > 1 {
			err = nearRanking(scores, want, stack.M())
		}
		if err != nil {
			l.fail("mirror task [%d,%d) differs from core.Worker: %v", task.V0, task.V0+task.V, err)
		}
	}
	mi.run.counters = mi.cfg.Obs.Snapshot().Counters
	return mi.run, nil
}

// task is core.Worker.ProcessContext for the optimized engine, re-composed
// from the public calls of the layers under it so that each can be timed:
// merged correlate+normalize, batched kernel precompute, per-voxel
// cross-validation.
func (mi *mirror) task(ctx context.Context, t core.Task) ([]core.VoxelScore, error) {
	m, cfg := mi.run, mi.cfg
	M, N := mi.stack.M(), mi.stack.N
	task := mi.op.child("core.task")

	p := &corr.Pipeline{Gemm: cfg.Gemm, Workers: cfg.Workers, Merged: cfg.Merged, Obs: cfg.Obs}
	buf := tensor.NewMatrix(t.V*M, N)
	sp := task.child("corr.pipeline")
	err := p.RunInto(ctx, mi.stack, t.V0, t.V, buf)
	m.pipelineS += sp.end()
	if err != nil {
		return nil, err
	}

	As := make([]*tensor.Matrix, t.V)
	kernels := make([]*tensor.Matrix, t.V)
	for v := range As {
		As[v] = buf.View(v*M, 0, M, N)
		kernels[v] = tensor.NewMatrix(M, M)
	}
	sp = task.child("blas.batchsyrk")
	err = blas.BatchSyrkContext(ctx, kernels, As, blas.DefaultSyrkBlock, cfg.Workers)
	m.syrkS += sp.end()
	if err != nil {
		return nil, err
	}

	scores := make([]core.VoxelScore, t.V)
	cv := make([]float64, t.V)
	sp = task.child("svm.cv")
	err = safe.ParallelDynamic(ctx, safe.Span{Stage: "bench/cv", Base: t.V0}, t.V, cfg.Workers, func(ictx context.Context, v int) error {
		start := time.Now()
		acc, err := svm.CrossValidateContext(ictx, cfg.Trainer, kernels[v], mi.labels, mi.folds)
		cv[v] = time.Since(start).Seconds()
		scores[v] = core.VoxelScore{Voxel: t.V0 + v, Accuracy: acc}
		return err
	})
	m.cvS += sp.end()
	if err != nil {
		return nil, err
	}
	m.taskS += task.end()
	m.selfS += mi.l.rec.self(task)
	m.cvVoxel = append(m.cvVoxel, cv...)

	if mi.raw != nil {
		m.maxAbsErr = max(m.maxAbsErr, corrError(mi.stack, mi.raw, buf, t))
		if cfg.Workers > 1 {
			// The batched precompute merges partial sums in scheduling
			// order, so its last bits, and with them SMO's path, vary from
			// run to run; single-threaded it repeats, and so does the count.
			for v := range kernels {
				kernels[v] = tensor.NewMatrix(M, M)
			}
			if err := blas.BatchSyrkContext(ctx, kernels, As, blas.DefaultSyrkBlock, 1); err != nil {
				return nil, err
			}
		}
		for v := range kernels {
			st, err := svm.CrossValidateDetailed(cfg.Trainer, kernels[v], mi.labels, mi.folds)
			if err != nil {
				return nil, err
			}
			m.iters += st.TotalIters()
		}
	}
	return scores, nil
}

// sampledVoxels is how many of a task's voxels corr.max_abs_err checks.
const sampledVoxels = 8

// corrError is the largest absolute difference between the task's stage-2
// buffer and the benchmark's own arithmetic on a sample of its voxels:
// float64 Pearson over each epoch of the raw data, math.Atanh (clamped as
// the program clamps), z-score within subject. The voxel's correlation
// with itself is skipped: clamped to a constant, its z-score is 0/0.
func corrError(stack *corr.EpochStack, raw *tensor.Matrix, buf *tensor.Matrix, t core.Task) float64 {
	M, E := stack.M(), stack.E
	var worst float64
	z := make([]float64, E)
	for k := 0; k < min(sampledVoxels, t.V); k++ {
		v := k * t.V / min(sampledVoxels, t.V)
		for s := 0; s < stack.Subjects; s++ {
			for j := 0; j < stack.N; j++ {
				if j == t.V0+v {
					continue
				}
				var sum, sumSq float64
				for ei := range z {
					ep := stack.Epochs[s*E+ei]
					r := pearson(raw.Row(t.V0 + v)[ep.Start:ep.Start+ep.Len], raw.Row(j)[ep.Start:ep.Start+ep.Len])
					z[ei] = math.Atanh(max(-norm.ClampR, min(norm.ClampR, r)))
					sum += z[ei]
					sumSq += z[ei] * z[ei]
				}
				mean := sum / float64(E)
				sd := math.Sqrt(max(sumSq/float64(E)-mean*mean, 0))
				for ei := range z {
					want := 0.0
					if sd > 0 {
						want = (z[ei] - mean) / sd
					}
					got := float64(buf.Data[(v*M+s*E+ei)*buf.Stride+j])
					worst = max(worst, math.Abs(got-want))
				}
			}
		}
	}
	return worst
}

// pearson is the textbook correlation coefficient in float64.
func pearson(x, y []float32) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += float64(x[i])
		sy += float64(y[i])
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := float64(x[i])-mx, float64(y[i])-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// perCall times f run back to back often enough to fill about 2 ms, five
// times over, and returns the fastest per-call time in seconds.
func perCall(f func()) float64 {
	start := time.Now()
	f()
	once := max(time.Since(start), time.Microsecond)
	reps := int(min(max(2*time.Millisecond/once, 1), 1000))
	best := time.Duration(math.MaxInt64)
	for try := 0; try < 5; try++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		best = min(best, time.Since(start))
	}
	return best.Seconds() / float64(reps)
}

func randomMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.Float64()*1.8 - 0.9)
	}
	return m
}

// gemmRate measures blas.TallSkinny.Gemm on an m×k by k×n product whose
// output rows lie cStride rows apart, the interleaved write of the merged
// stage (1: compact), in GFLOP/s.
func gemmRate(m, k, n, cStride int) float64 {
	rng := rand.New(rand.NewSource(1))
	A, B := randomMatrix(rng, m, k), randomMatrix(rng, k, n)
	C := tensor.NewMatrix(m*cStride, n)
	view := &tensor.Matrix{Rows: m, Cols: n, Stride: cStride * n, Data: C.Data}
	g := blas.TallSkinny{Workers: 1}
	return float64(blas.GemmFlops(m, k, n)) / perCall(func() { g.Gemm(view, A, B) }) / 1e9
}

// fisherRate measures norm.Scratch.FisherThenZScoreStrided on a rows×cols
// block of correlation coefficients, in elements per second.
func fisherRate(rows, cols int) float64 {
	src := randomMatrix(rand.New(rand.NewSource(2)), rows, cols)
	block := tensor.NewMatrix(rows, cols)
	var sc norm.Scratch
	// The sweep works in place, so every call starts from a fresh copy;
	// the copy's own time is taken out.
	both := perCall(func() {
		copy(block.Data, src.Data)
		sc.FisherThenZScoreStrided(block.Data, rows, cols, cols)
	})
	copyOnly := perCall(func() { copy(block.Data, src.Data) })
	return float64(rows*cols) / (both - copyOnly)
}
