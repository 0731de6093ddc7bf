package main

import (
	"context"
	"fmt"
	"time"

	"fcma"
	"fcma/internal/fmri"
)

// env is what a run hands its workload.
type env struct {
	seed int64
	// p sizes the load: min(nproc, 4). Every Workers, worker rank, executor
	// and client count is p or 1, never larger.
	p int
	// toy selects test-sized inputs (the go test smoke).
	toy bool
	// dir is the run's scratch directory, inside the checkout.
	dir string
}

// pick returns the full-size value, or the toy one in a toy run.
func (e *env) pick(full, toy int) int {
	if e.toy {
		return toy
	}
	return full
}

// coupling returns the workload's signal strength; toy inputs are too small
// to find a faint signal, so theirs is strong.
func (e *env) coupling(full float64) float64 {
	if e.toy {
		return 0.9
	}
	return full
}

// workload is one set of inputs the benchmark runs, with the system that
// consumes them.
type workload struct {
	name string
	why  string
	// recallFloor is the planted_recall below which an op counts as failed:
	// the ranking no longer finds the signal the generator planted.
	recallFloor float64
	setup       func(ctx context.Context, e *env) (*system, error)
}

var workloads = []workload{
	{
		name:        "facescene_local",
		why:         "wide brain, few epochs, Workers=P in one task: the merged correlate+normalize stage dominates, SVM does not",
		recallFloor: 0.5,
		setup:       setupFaceSceneLocal,
	},
	{
		name:        "attention_cluster",
		why:         "many epochs, narrow brain, P master-worker ranks at Workers=1: SMO cross-validation and task dispatch dominate",
		recallFloor: 0.5,
		setup:       setupAttentionCluster,
	},
	{
		name:        "online_subject",
		why:         "one subject, 12 epochs, k-fold CV plus classifier training: the real-time case, where the user feels the latency of one call",
		recallFloor: 0.4,
		setup:       setupOnlineSubject,
	},
	{
		name:        "serve_smalljobs",
		why:         "P HTTP clients, small jobs through fcma-serve with a real fsynced WAL: the request layer is half the work",
		recallFloor: 0.4,
		setup:       setupServeSmallJobs,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// input is one of the datasets a workload's ops cycle over.
type input struct {
	spec fcma.Spec
	// subject, when >= 0, narrows the dataset to that one subject.
	subject int
	// data is what ops run on.
	data *fcma.Data
	// ranked is the length of the ranking an op returns for this input.
	ranked int
}

// dataset regenerates the input as the internal type the per-layer probes
// need (generation is seeded, so this is the data ops ran on).
func (in input) dataset() (*fmri.Dataset, error) {
	ds, err := fmri.Generate(fmri.Spec(in.spec))
	if err != nil {
		return nil, err
	}
	if in.subject >= 0 {
		ds = ds.SelectSubjects([]int{in.subject})
	}
	return ds, nil
}

// outcome is what one op produced.
type outcome struct {
	scores []fcma.VoxelScore
	// check is a workload-specific check of the rest of the op's output,
	// run after the measured interval; nil when the ranking is all of it.
	check func() error
}

// system is a set-up workload: inputs generated, program started, warm-up
// op done.
type system struct {
	// clients is the number of closed-loop callers.
	clients int
	inputs  []input
	// exact says that two ops on one input return bit-identical rankings:
	// true when every op runs the single-threaded paths, which sum in a
	// fixed order. Where it is false, rankings are compared by nearRanking.
	exact bool
	// generateS is the time set-up spent in fcma.Generate.
	generateS float64
	// op runs the i-th operation, on inputs[i mod len(inputs)]. sp is the
	// op's span for the layers below to hang theirs on; nil with tracing off.
	op func(ctx context.Context, i int, sp *active) (outcome, error)
	// reference reaches the ranking of inputs[in] by a second path through
	// the program; op results must equal it bit for bit. nil: the workload
	// has no second path.
	reference func(ctx context.Context, in int) ([]fcma.VoxelScore, error)
	// shape describes the core tasks one op of this workload is made of,
	// for the traced run's mirror task.
	shape taskShape
	// tracedOp runs op 0 with the program's own tracer on and returns its
	// wall and the spans the program recorded.
	tracedOp func(ctx context.Context) (time.Duration, int, error)
	// serialOp runs op 0 single-threaded; nil where an op has no
	// Workers=P form to compare with.
	serialOp func(ctx context.Context) (time.Duration, error)
	// layers adds the workload's own per-layer rows in a traced run.
	layers func(ctx context.Context, l *ledger) error
	close  func() error
}

// taskShape is how a workload cuts an op into core tasks.
type taskShape struct {
	// workers is the Workers the op hands the epoch-stack build and the
	// core worker.
	workers int
	// taskVoxels is the voxel count of one task (the last may be shorter).
	taskVoxels int
}

// generate builds n datasets of one shape, seeded from the run seed.
func generate(e *env, salt int64, n int, spec fcma.Spec) ([]input, float64, error) {
	inputs := make([]input, n)
	start := time.Now()
	for i := range inputs {
		spec.Name = fmt.Sprintf("bench-%d", i)
		spec.Seed = e.seed*1000 + salt + int64(i)
		d, err := fcma.Generate(spec)
		if err != nil {
			return nil, 0, fmt.Errorf("generating input %d: %w", i, err)
		}
		inputs[i] = input{spec: spec, subject: -1, data: d, ranked: spec.Voxels}
	}
	return inputs, time.Since(start).Seconds(), nil
}

// inputsPerWorkload is how many datasets a workload's ops cycle over, so a
// run's time and recall do not hang on one draw of the generator.
const inputsPerWorkload = 4

// selectFunc is one of the library's whole-brain selection entry points.
type selectFunc func(ctx context.Context, d *fcma.Data, cfg fcma.Config) (outcome, error)

// librarySystem wires a workload that calls the library in-process: op i is
// one run(inputs[i mod n], cfg). Set-up ends with the excluded warm-up op.
func librarySystem(ctx context.Context, inputs []input, generateS float64, cfg fcma.Config, run selectFunc) (*system, error) {
	sys := &system{
		clients:   1,
		inputs:    inputs,
		exact:     cfg.Workers == 1,
		generateS: generateS,
		// One task covers the brain, as in fcma.SelectVoxelsContext.
		shape: taskShape{workers: cfg.Workers, taskVoxels: inputs[0].spec.Voxels},
		op: func(ctx context.Context, i int, _ *active) (outcome, error) {
			return run(ctx, inputs[i%len(inputs)].data, cfg)
		},
		tracedOp: func(ctx context.Context) (time.Duration, int, error) {
			traced := cfg
			traced.Trace = fcma.NewTracer()
			start := time.Now()
			_, err := run(ctx, inputs[0].data, traced)
			return time.Since(start), len(traced.Trace.Drain()), err
		},
		close: func() error { return nil },
	}
	if cfg.Workers > 1 {
		sys.serialOp = func(ctx context.Context) (time.Duration, error) {
			serial := cfg
			serial.Workers = 1
			start := time.Now()
			_, err := run(ctx, inputs[0].data, serial)
			return time.Since(start), err
		}
	}
	if _, err := sys.op(ctx, 0, nil); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return sys, nil
}

func selectLocal(ctx context.Context, d *fcma.Data, cfg fcma.Config) (outcome, error) {
	scores, err := fcma.SelectVoxelsContext(ctx, d, cfg)
	return outcome{scores: scores}, err
}

func setupFaceSceneLocal(ctx context.Context, e *env) (*system, error) {
	inputs, genS, err := generate(e, 100, inputsPerWorkload, fcma.Spec{
		Voxels: e.pick(640, 96), Subjects: 4, EpochsPerSubject: 12, EpochLen: 12, RestLen: 6,
		SignalVoxels: e.pick(96, 16), Coupling: e.coupling(0.40),
	})
	if err != nil {
		return nil, err
	}
	return librarySystem(ctx, inputs, genS, fcma.Config{Workers: e.p}, selectLocal)
}

func setupAttentionCluster(ctx context.Context, e *env) (*system, error) {
	inputs, genS, err := generate(e, 200, inputsPerWorkload, fcma.Spec{
		Voxels: e.pick(256, 64), Subjects: e.pick(6, 3), EpochsPerSubject: e.pick(16, 6), EpochLen: 12, RestLen: 6,
		SignalVoxels: e.pick(48, 8), Coupling: e.coupling(0.38),
	})
	if err != nil {
		return nil, err
	}
	ranks, taskSize := e.p, e.pick(32, 16)
	cfg := fcma.Config{Workers: 1}
	sys, err := librarySystem(ctx, inputs, genS, cfg, func(ctx context.Context, d *fcma.Data, cfg fcma.Config) (outcome, error) {
		scores, err := fcma.SelectVoxelsDistributedContext(ctx, d, cfg, ranks, taskSize)
		return outcome{scores: scores}, err
	})
	if err != nil {
		return nil, err
	}
	sys.shape.taskVoxels = taskSize
	// The distributed ranking must be the local one: same kernels, same
	// voxels, only the dispatch differs. Workers=1 as on the ranks: with
	// more, the batched kernel precompute sums in scheduling order and the
	// last bits of a score can differ between two runs.
	sys.reference = func(ctx context.Context, in int) ([]fcma.VoxelScore, error) {
		return fcma.SelectVoxelsContext(ctx, inputs[in].data, cfg)
	}
	sys.layers = func(ctx context.Context, l *ledger) error {
		return clusterLayers(ctx, l, inputs, ranks, taskSize)
	}
	return sys, nil
}

func setupOnlineSubject(ctx context.Context, e *env) (*system, error) {
	const subjects = inputsPerWorkload
	whole, genS, err := generate(e, 300, 1, fcma.Spec{
		Voxels: e.pick(1024, 128), Subjects: subjects, EpochsPerSubject: 12, EpochLen: 12, RestLen: 6,
		SignalVoxels: e.pick(96, 12), Coupling: e.coupling(0.70),
	})
	if err != nil {
		return nil, err
	}
	cfg := fcma.Config{Workers: e.p, TopK: e.pick(100, 16)}
	inputs := make([]input, subjects)
	for s := range inputs {
		d, err := whole[0].data.Subject(s)
		if err != nil {
			return nil, err
		}
		inputs[s] = input{spec: whole[0].spec, subject: s, data: d, ranked: cfg.TopK}
	}
	return librarySystem(ctx, inputs, genS, cfg, func(ctx context.Context, d *fcma.Data, cfg fcma.Config) (outcome, error) {
		res, err := fcma.OnlineAnalysisContext(ctx, d, cfg)
		if err != nil {
			return outcome{}, err
		}
		return outcome{scores: res.Selected, check: func() error { return checkClassifier(d, res.Classifier) }}, nil
	})
}

// checkClassifier verifies the second half of an online op's output: the
// classifier trained on the selected voxels must label the epochs it was
// trained on (12 points in thousands of dimensions are separable, so a
// miss means the features or the model are wrong).
func checkClassifier(d *fcma.Data, clf *fcma.Classifier) error {
	if clf == nil {
		return fmt.Errorf("online result has no classifier")
	}
	// Epoch labels alternate from 0 in generated data (fmri.Generate).
	right := 0
	for e := 0; e < d.Epochs(); e++ {
		if label, _ := clf.Predict(d, e); label == e%2 {
			right++
		}
	}
	if 10*right < 9*d.Epochs() {
		return fmt.Errorf("classifier labels %d of its %d training epochs", right, d.Epochs())
	}
	return nil
}
