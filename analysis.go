package fcma

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"fcma/internal/cluster"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/mvpa"
	"fcma/internal/norm"
	"fcma/internal/obs/trace"
	"fcma/internal/roi"
	"fcma/internal/rt"
	"fcma/internal/safe"
	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// FoldResult is one outer fold of the offline analysis.
type FoldResult struct {
	// LeftOutSubject is the subject held out of voxel selection and used
	// to verify the final classifier.
	LeftOutSubject int
	// Selected are the voxels chosen on the training subjects, best
	// first.
	Selected []VoxelScore
	// TestAccuracy is the final classifier's accuracy on the held-out
	// subject's epochs.
	TestAccuracy float64
	// Elapsed is the wall time of the fold.
	Elapsed time.Duration
}

// OfflineResult is the outcome of a nested leave-one-subject-out analysis.
type OfflineResult struct {
	// Folds holds one entry per subject.
	Folds []FoldResult
	// ReliableVoxels are voxels selected in a majority of folds — the
	// paper's cross-fold statistical comparison for identifying reliable
	// ROIs (§5.2.1).
	ReliableVoxels []int
	// Elapsed is the total wall time.
	Elapsed time.Duration
}

// MeanAccuracy returns the average held-out accuracy across folds.
func (r *OfflineResult) MeanAccuracy() float64 {
	if len(r.Folds) == 0 {
		return 0
	}
	var sum float64
	for _, f := range r.Folds {
		sum += f.TestAccuracy
	}
	return sum / float64(len(r.Folds))
}

// OfflineAnalysis runs the paper's offline experiment (§5.2.1): for every
// subject, select voxels by FCMA on the remaining subjects (inner
// leave-one-subject-out cross-validation), train a final classifier on the
// selected voxels' correlation patterns, and verify it on the held-out
// subject.
func OfflineAnalysis(d *Data, cfg Config) (*OfflineResult, error) {
	return OfflineAnalysisContext(context.Background(), d, cfg)
}

// OfflineAnalysisContext is OfflineAnalysis with cooperative
// cancellation: a cancelled ctx stops the in-flight fold at its next
// pipeline checkpoint and returns ctx.Err().
func OfflineAnalysisContext(ctx context.Context, d *Data, cfg Config) (*OfflineResult, error) {
	if d.ds.Subjects < 3 {
		return nil, fmt.Errorf("fcma: offline analysis needs at least 3 subjects, got %d", d.ds.Subjects)
	}
	start := time.Now()
	res := &OfflineResult{}
	counts := make(map[int]int)
	k := cfg.topK(d.Voxels())
	for s := 0; s < d.ds.Subjects; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		foldStart := time.Now()
		train := d.withoutSubject(s)
		scores, err := SelectVoxelsContext(ctx, train, cfg)
		if err != nil {
			return nil, fmt.Errorf("fcma: fold %d voxel selection: %w", s, err)
		}
		selected := scores[:min(k, len(scores))]
		voxels := make([]int, len(selected))
		for i, sc := range selected {
			voxels[i] = sc.Voxel
			counts[sc.Voxel]++
		}
		acc, err := verifyFold(ctx, d, voxels, s, cfg)
		if err != nil {
			return nil, fmt.Errorf("fcma: fold %d verification: %w", s, err)
		}
		res.Folds = append(res.Folds, FoldResult{
			LeftOutSubject: s,
			Selected:       selected,
			TestAccuracy:   acc,
			Elapsed:        time.Since(foldStart),
		})
	}
	for v, c := range counts {
		if c*2 > d.ds.Subjects {
			res.ReliableVoxels = append(res.ReliableVoxels, v)
		}
	}
	sort.Ints(res.ReliableVoxels)
	res.Elapsed = time.Since(start)
	return res, nil
}

// verifyFold trains the final classifier on all subjects but s and tests
// on s.
func verifyFold(ctx context.Context, d *Data, voxels []int, leftOut int, cfg Config) (float64, error) {
	var trainIdx, testIdx []int
	for i, e := range d.ds.Epochs {
		if e.Subject == leftOut {
			testIdx = append(testIdx, i)
		} else {
			trainIdx = append(trainIdx, i)
		}
	}
	clf, err := trainClassifier(ctx, d, voxels, trainIdx, cfg)
	if err != nil {
		return 0, err
	}
	correct := 0
	for _, i := range testIdx {
		if pred, _ := clf.Predict(d, i); pred == d.ds.Epochs[i].Label {
			correct++
		}
	}
	return float64(correct) / float64(len(testIdx)), nil
}

// OnlineResult is the outcome of single-subject voxel selection for
// closed-loop feedback (§5.2.2).
type OnlineResult struct {
	// Selected are the chosen voxels, best first.
	Selected []VoxelScore
	// Classifier is trained on the subject's data over the selected
	// voxels, ready to label incoming epochs.
	Classifier *Classifier
	// Elapsed is the selection + training wall time (the paper's
	// real-time budget is a few seconds).
	Elapsed time.Duration
}

// OnlineAnalysis emulates the closed-loop scenario: voxel selection and
// classifier training from a single subject's data.
func OnlineAnalysis(d *Data, cfg Config) (*OnlineResult, error) {
	return OnlineAnalysisContext(context.Background(), d, cfg)
}

// OnlineAnalysisContext is OnlineAnalysis with cooperative cancellation —
// the closed-loop setting where a selection run that outlives its
// real-time budget must be abandoned.
func OnlineAnalysisContext(ctx context.Context, d *Data, cfg Config) (*OnlineResult, error) {
	if d.ds.Subjects != 1 {
		return nil, fmt.Errorf("fcma: online analysis takes one subject's data, got %d subjects", d.ds.Subjects)
	}
	start := time.Now()
	scores, err := SelectVoxelsContext(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	k := cfg.topK(d.Voxels())
	selected := scores[:min(k, len(scores))]
	voxels := make([]int, len(selected))
	for i, sc := range selected {
		voxels[i] = sc.Voxel
	}
	all := make([]int, len(d.ds.Epochs))
	for i := range all {
		all[i] = i
	}
	clf, err := trainClassifier(ctx, d, voxels, all, cfg)
	if err != nil {
		return nil, err
	}
	return &OnlineResult{Selected: selected, Classifier: clf, Elapsed: time.Since(start)}, nil
}

// Classifier labels epochs from the correlation pattern among a fixed set
// of selected voxels.
type Classifier struct {
	// Voxels are the selected voxel indices the feature space is built
	// from.
	Voxels []int
	feats  *tensor.Matrix // training feature rows (support vectors only)
	coef   []float64
	rho    float64
}

// pairFeatures computes the Fisher-transformed pairwise correlations among
// the selected voxels for one epoch window — the "correlation pattern of
// the selected voxels" the paper's final classifier uses — into dst[:0]
// (a feature-matrix row, so training builds each row once, in place), or
// into a new slice when dst is nil.
func pairFeatures(dst []float32, ds *fmri.Dataset, voxels []int, e fmri.Epoch) []float32 {
	rows := make([][]float32, len(voxels))
	for i, v := range voxels {
		rows[i] = ds.Data.Row(v)[e.Start : e.Start+e.Len]
	}
	return pairFeaturesFromRows(dst, rows)
}

// pairFeaturesFromRows is pairFeatures over rows of one length. Feature
// (i, j) is norm.FisherZ of the Pearson correlation of rows i and j, 0
// when either row is constant, empty or holds a non-finite sample. Each
// row's tensor.MeanStd and centred float64 copy are taken once, and each
// pair then runs the remaining terms of corr's reference pearson in its
// order: the same degenerate-row test, Σ cᵢcⱼ, ÷ n, ÷ (sᵢ·sⱼ), the
// finite check.
func pairFeaturesFromRows(dst []float32, rows [][]float32) []float32 {
	k := len(rows)
	out := dst[:0]
	if dst == nil {
		out = make([]float32, 0, k*(k-1)/2)
	}
	n := 0
	if k > 0 {
		n = len(rows[0])
	}
	centred := make([]float64, k*n)
	// std is 0 for every row the correlation is 0 for: constant, empty, or
	// holding a non-finite sample.
	std := make([]float64, k)
	for i, r := range rows {
		if len(r) != n {
			panic("fcma: pair features over unequal-length rows")
		}
		mean, s := tensor.MeanStd(r)
		if finite(mean) && finite(s) {
			std[i] = s
		}
		c := centred[i*n : (i+1)*n]
		for t, v := range r {
			c[t] = float64(v) - mean
		}
	}
	for i := 0; i < k; i++ {
		ci := centred[i*n : (i+1)*n]
		for j := i + 1; j < k; j++ {
			var r float64
			if std[i] != 0 && std[j] != 0 {
				cj := centred[j*n : (j+1)*n]
				var cov float64
				for t, v := range ci {
					cov += v * cj[t]
				}
				cov /= float64(n)
				if r = cov / (std[i] * std[j]); !finite(r) {
					r = 0
				}
			}
			out = append(out, norm.FisherZ(float32(r)))
		}
	}
	return out
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// trainClassifier fits a linear SVM on the pair features of the given
// training epochs, each feature row built whole by one of cfg.Workers.
func trainClassifier(ctx context.Context, d *Data, voxels []int, trainIdx []int, cfg Config) (*Classifier, error) {
	if len(voxels) < 2 {
		return nil, fmt.Errorf("fcma: classifier needs at least 2 voxels, got %d", len(voxels))
	}
	p := len(voxels) * (len(voxels) - 1) / 2
	feats := tensor.NewMatrix(len(trainIdx), p)
	labels := make([]int, len(trainIdx))
	if err := safe.ParallelDynamic(ctx, safe.Span{Stage: "fcma/pair_features"}, len(trainIdx), cfg.Workers, func(_ context.Context, i int) error {
		pairFeatures(feats.Row(i), d.ds, voxels, d.ds.Epochs[trainIdx[i]])
		labels[i] = d.ds.Epochs[trainIdx[i]].Label
		return nil
	}); err != nil {
		return nil, err
	}
	K := svm.PrecomputeKernel(feats)
	all := make([]int, len(trainIdx))
	for i := range all {
		all[i] = i
	}
	model, err := cfg.trainer().TrainKernel(K, labels, all)
	if err != nil {
		return nil, err
	}
	// Keep only the support vectors' feature rows.
	var svRows [][]float32
	var coef []float64
	for i, c := range model.Coef {
		if c != 0 {
			svRows = append(svRows, feats.Row(i))
			coef = append(coef, c)
		}
	}
	sv := tensor.NewMatrix(len(svRows), p)
	for i, r := range svRows {
		copy(sv.Row(i), r)
	}
	return &Classifier{
		Voxels: append([]int(nil), voxels...),
		feats:  sv,
		coef:   coef,
		rho:    model.Rho,
	}, nil
}

// Decide returns the decision value for epoch index e of d (positive means
// label 1).
func (c *Classifier) Decide(d *Data, e int) float64 {
	if e < 0 || e >= len(d.ds.Epochs) {
		panic(fmt.Sprintf("fcma: epoch %d of %d", e, len(d.ds.Epochs)))
	}
	return c.decide(pairFeatures(nil, d.ds, c.Voxels, d.ds.Epochs[e]))
}

// decide is the decision function over one epoch's pair features.
func (c *Classifier) decide(x []float32) float64 {
	var f float64
	for i, co := range c.coef {
		f += co * tensor.Dot(c.feats.Row(i), x)
	}
	return f - c.rho
}

// label turns a decision value into the predicted label (0 or 1) beside it.
func label(f float64) (int, float64) {
	if f > 0 {
		return 1, f
	}
	return 0, f
}

// Predict returns the predicted label (0 or 1) and the decision value for
// epoch index e of d.
func (c *Classifier) Predict(d *Data, e int) (int, float64) {
	return label(c.Decide(d, e))
}

// ActivityScore is a voxel and its activity-MVPA accuracy; see
// SelectVoxelsByActivity.
type ActivityScore = mvpa.VoxelScore

// SelectVoxelsByActivity scores every voxel with conventional
// activity-based MVPA (classification from within-epoch BOLD amplitude)
// instead of FCMA's correlation patterns. It is the comparator for FCMA's
// motivating claim: voxels whose interactions are condition-dependent but
// whose activity levels are not score near chance here while ranking at
// the top under SelectVoxels.
func SelectVoxelsByActivity(d *Data, cfg Config) ([]ActivityScore, error) {
	return SelectVoxelsByActivityContext(context.Background(), d, cfg)
}

// SelectVoxelsByActivityContext is SelectVoxelsByActivity with
// cooperative cancellation (checked between voxels).
func SelectVoxelsByActivityContext(ctx context.Context, d *Data, cfg Config) ([]ActivityScore, error) {
	return mvpa.SelectVoxelsContext(cfg.traceCtx(ctx), d.ds, mvpa.Config{Trainer: cfg.trainer(), Workers: cfg.Workers})
}

// ROI is a spatially contiguous region of selected voxels.
type ROI = roi.Region

// FindROIs groups the given voxels (typically the top of a SelectVoxels
// ranking) into 6-connected regions on the dataset's acquisition grid —
// the paper's final step of identifying the brain regions constituted by
// the top voxels. scores may be nil; when given, each region reports its
// peak voxel. minSize filters specks (a value below 1 means 1).
func FindROIs(d *Data, voxels []int, scores []VoxelScore, minSize int) ([]ROI, error) {
	if !d.ds.HasGeometry() {
		return nil, fmt.Errorf("fcma: dataset %q has no acquisition grid; ROIs need geometry", d.Name())
	}
	// Masked datasets (e.g. loaded from NIfTI) carry a voxel→grid map;
	// clustering happens in grid space and results are translated back to
	// dataset voxel indices.
	toGrid := func(v int) int { return v }
	var fromGrid map[int]int
	if gi := d.ds.GridIndex; gi != nil {
		fromGrid = make(map[int]int, len(gi))
		for v, g := range gi {
			fromGrid[g] = v
		}
		toGrid = func(v int) int { return gi[v] }
	}
	gridVoxels := make([]int, len(voxels))
	for i, v := range voxels {
		if v < 0 || v >= d.Voxels() {
			return nil, fmt.Errorf("fcma: voxel %d of %d", v, d.Voxels())
		}
		gridVoxels[i] = toGrid(v)
	}
	var scoreMap map[int]float64
	if scores != nil {
		scoreMap = make(map[int]float64, len(scores))
		for _, s := range scores {
			scoreMap[toGrid(s.Voxel)] = s.Accuracy
		}
	}
	regions, err := roi.Clusters(d.ds.Dims, gridVoxels, minSize, scoreMap)
	if err != nil {
		return nil, err
	}
	if fromGrid != nil {
		for ri := range regions {
			for vi, g := range regions[ri].Voxels {
				regions[ri].Voxels[vi] = fromGrid[g]
			}
			regions[ri].PeakVoxel = fromGrid[regions[ri].PeakVoxel]
		}
	}
	return regions, nil
}

// Grid returns the dataset's 3D acquisition grid dimensions (x, y, z);
// all zero when no geometry is known.
func (d *Data) Grid() [3]int { return d.ds.Dims }

// ClassifyWindow labels a raw whole-brain activity window (voxels×T, all
// brain voxels in dataset order) — the real-time entry point used by the
// closed-loop feedback layer, which hands over assembled epochs as they
// complete.
func (c *Classifier) ClassifyWindow(w *tensor.Matrix) (int, float64) {
	rows := make([][]float32, len(c.Voxels))
	for i, v := range c.Voxels {
		rows[i] = w.Row(v)
	}
	return label(c.decide(pairFeaturesFromRows(nil, rows)))
}

// Feedback is one real-time prediction from the closed loop; see
// RunClosedLoop.
type Feedback = rt.Prediction

// RunClosedLoop emulates the paper's Fig. 1 loop on a prerecorded run: the
// dataset is streamed one brain volume per tr (0 = as fast as possible),
// epochs are assembled from the stream as they complete, and the
// classifier labels each one. The prediction channel closes when the run
// ends; the error channel carries at most one stream error.
func RunClosedLoop(d *Data, clf *Classifier, tr time.Duration) (<-chan Feedback, <-chan error) {
	return RunClosedLoopContext(context.Background(), d, clf, tr)
}

// RunClosedLoopContext is RunClosedLoop with cooperative cancellation
// and panic containment: a cancelled ctx ends the stream and the
// feedback loop (delivering ctx.Err() on the error channel), and a
// panicking classifier surfaces as a *PipelineError on the error
// channel instead of killing the process.
func RunClosedLoopContext(ctx context.Context, d *Data, clf *Classifier, tr time.Duration) (<-chan Feedback, <-chan error) {
	frames := rt.NewScanner(d.ds, tr).StreamContext(ctx)
	// The classify spans of the feedback loop record under whatever tracer
	// the caller's ctx carries (RunClosedLoop passes none: tracing off).
	return rt.RunFeedbackContext(ctx, frames, d.ds.Epochs, d.Voxels(), clf)
}

// SelectVoxelsDistributed runs whole-brain voxel selection through the
// master–worker cluster runtime with the given number of in-process
// workers — the single-machine deployment of the paper's §3.1.1 framework
// (the TCP deployment lives in cmd/fcma-cluster). taskSize voxels go to a
// worker per assignment; 0 selects the paper's 120.
func SelectVoxelsDistributed(d *Data, cfg Config, workers, taskSize int) ([]VoxelScore, error) {
	return SelectVoxelsDistributedContext(context.Background(), d, cfg, workers, taskSize)
}

// SelectVoxelsDistributedContext is SelectVoxelsDistributed with
// cooperative cancellation and panic containment: a cancelled ctx makes
// the master broadcast TagStop and return ctx.Err() with every
// in-process worker joined, and a panic in any worker is contained to an
// error report (a *PipelineError) handled by the master's
// retry/quarantine machinery instead of crashing the process.
func SelectVoxelsDistributedContext(ctx context.Context, d *Data, cfg Config, workers, taskSize int) ([]VoxelScore, error) {
	if workers <= 0 {
		workers = 2
	}
	if taskSize <= 0 {
		taskSize = 120
	}
	stack, report, err := prepare(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	// With tracing on, the master records into cfg.Trace and each
	// in-process worker rank gets its own tracer; the master absorbs the
	// spans each report carries, so one Drain covers the whole run.
	scores, err := cluster.RunLocal(ctx, workers, stack.N, taskSize, cluster.MasterOptions{Trace: cfg.Trace},
		func(r int) (cluster.TaskProcessor, cluster.WorkerOptions, error) {
			var wopts cluster.WorkerOptions
			if cfg.Trace != nil {
				wopts.Trace = trace.New(r)
			}
			w, err := core.NewWorker(cfg.coreConfig(), stack, nil)
			return w, wopts, err
		})
	if err != nil {
		return nil, err
	}
	scores = remapScores(scores, report)
	return core.TopVoxels(scores, 0), nil
}

// StreamingSelector accumulates one subject's epochs as they arrive and
// re-runs voxel selection on demand — incremental online training for the
// closed loop (selection quality grows with the session instead of
// waiting for the full run).
type StreamingSelector struct {
	cfg   core.Config
	stack *corr.EpochStack
}

// NewStreamingSelector builds a selector for a brain of the given size
// and fixed epoch length.
func NewStreamingSelector(cfg Config, brainVoxels, epochLen int) (*StreamingSelector, error) {
	stack, err := corr.NewOnlineStack(brainVoxels, epochLen)
	if err != nil {
		return nil, err
	}
	return &StreamingSelector{cfg: cfg.coreConfig(), stack: stack}, nil
}

// FeedEpoch adds a completed epoch window (voxels×epochLen activity, all
// brain voxels in dataset order) with its training label.
func (s *StreamingSelector) FeedEpoch(window *tensor.Matrix, label int) error {
	return s.stack.AppendEpoch(window, label)
}

// Ready reports whether enough balanced data has arrived to select: two
// epochs of each condition, so every cross-validation training fold holds
// both classes.
func (s *StreamingSelector) Ready() bool { return s.stack.Balanced(2) }

// Epochs returns how many epochs have been accumulated.
func (s *StreamingSelector) Epochs() int { return s.stack.M() }

// Select ranks every voxel over the data received so far, best first.
func (s *StreamingSelector) Select() ([]VoxelScore, error) {
	return s.SelectContext(context.Background())
}

// SelectContext is Select with cooperative cancellation — a selection
// run that outlives its real-time budget can be abandoned before the
// next volume arrives. It runs whole-brain FCMA voxel selection over the
// epochs received so far, with k-fold cross-validation over epochs (the
// online regime).
func (s *StreamingSelector) SelectContext(ctx context.Context) ([]VoxelScore, error) {
	if !s.Ready() {
		return nil, fmt.Errorf("fcma: streaming selection needs at least 2 epochs per condition, have %d total", s.stack.M())
	}
	worker, err := core.NewWorker(s.cfg, s.stack, nil)
	if err != nil {
		return nil, err
	}
	scores, err := worker.ProcessContext(ctx, core.Task{V0: 0, V: s.stack.N})
	if err != nil {
		return nil, err
	}
	return core.TopVoxels(scores, 0), nil
}
