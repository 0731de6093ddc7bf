package baseline

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// separableProblem builds n 2D points, class by sign of x+y with margin,
// and returns the linear kernel matrix plus labels.
func separableProblem(rng *rand.Rand, n int) (*tensor.Matrix, []int) {
	X := tensor.NewMatrix(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		label := i % 2
		off := float32(1.0)
		if label == 0 {
			off = -1.0
		}
		X.Set(i, 0, off+rng.Float32()*0.4-0.2)
		X.Set(i, 1, off+rng.Float32()*0.4-0.2)
		labels[i] = label
	}
	return svm.PrecomputeKernel(X), labels
}

// noisyProblem builds a partially separable problem with flipped labels.
func noisyProblem(rng *rand.Rand, n int, flip float64) (*tensor.Matrix, []int) {
	K, labels := separableProblem(rng, n)
	for i := range labels {
		if rng.Float64() < flip {
			labels[i] = 1 - labels[i]
		}
	}
	return K, labels
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// comparators are the LibSVM rows of the trainer table; production lists
// the float32 solver of internal/svm they must agree with.
func comparators() map[string]svm.KernelTrainer {
	return map[string]svm.KernelTrainer{
		"libsvm":            LibSVM{},
		"libsvm-smallcache": LibSVM{CacheRows: 2},
	}
}

func production() map[string]svm.KernelTrainer {
	return map[string]svm.KernelTrainer{
		"phisvm": svm.PhiSVM{},
	}
}

func TestLibSVMSeparatesTrainingData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	K, labels := separableProblem(rng, 40)
	idx := allIdx(40)
	for name, tr := range comparators() {
		model, err := tr.TrainKernel(K, labels, idx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range labels {
			if got := model.Predict(K, i); got != labels[i] {
				t.Errorf("%s: sample %d predicted %d, want %d", name, i, got, labels[i])
			}
		}
		if !slices.ContainsFunc(model.Coef, func(c float64) bool { return c != 0 }) {
			t.Errorf("%s: no support vectors", name)
		}
	}
}

func TestLibSVMAgreesWithProductionOnObjective(t *testing.T) {
	// All solvers optimize the same dual; converged objectives must agree
	// to within the stopping tolerance.
	rng := rand.New(rand.NewSource(2))
	K, labels := noisyProblem(rng, 60, 0.1)
	idx := allIdx(60)
	ref, err := LibSVM{}.TrainKernel(K, labels, idx)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []map[string]svm.KernelTrainer{comparators(), production()} {
		for name, tr := range set {
			model, err := tr.TrainKernel(K, labels, idx)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if math.Abs(model.Objective-ref.Objective) > 0.05*math.Abs(ref.Objective)+0.05 {
				t.Fatalf("%s: objective %v, libsvm %v", name, model.Objective, ref.Objective)
			}
		}
	}
}

func TestLibSVMAgreesWithProductionOnPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	K, labels := noisyProblem(rng, 50, 0.05)
	train := allIdx(40) // hold out 10
	ref, err := LibSVM{}.TrainKernel(K, labels, train)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []map[string]svm.KernelTrainer{comparators(), production()} {
		for name, tr := range set {
			model, err := tr.TrainKernel(K, labels, train)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := 40; i < 50; i++ {
				a, b := ref.Decide(K, i), model.Decide(K, i)
				// Decisions near the boundary may differ; demand agreement
				// when the reference is confident.
				if math.Abs(a) > 0.1 && (a > 0) != (b > 0) {
					t.Errorf("%s: test sample %d decision %v vs libsvm %v", name, i, b, a)
				}
			}
		}
	}
}

func TestLibSVMKKTConditions(t *testing.T) {
	// At the solution: α=0 ⇒ y·f(x) ≥ 1−ε; α=C ⇒ y·f(x) ≤ 1+ε;
	// 0<α<C ⇒ y·f(x) ≈ 1. Decision uses f(x)=Σ coef·K − rho.
	rng := rand.New(rand.NewSource(4))
	K, labels := noisyProblem(rng, 50, 0.15)
	params := svm.Params{C: 1, Eps: 1e-4}
	model, err := LibSVM{Params: params}.TrainKernel(K, labels, allIdx(50))
	if err != nil {
		t.Fatal(err)
	}
	const slack = 0.02
	for i, kidx := range model.TrainIdx {
		y := float64(2*labels[kidx] - 1)
		yf := y * model.Decide(K, kidx)
		alpha := model.Coef[i] * y // α = coef·y since coef = α·y
		switch {
		case alpha <= 1e-9:
			if yf < 1-slack-params.Eps*10 {
				t.Fatalf("KKT violated for α=0 sample %d: y·f=%v", i, yf)
			}
		case alpha >= params.C-1e-9:
			if yf > 1+slack+params.Eps*10 {
				t.Fatalf("KKT violated for α=C sample %d: y·f=%v", i, yf)
			}
		default:
			if math.Abs(yf-1) > slack {
				t.Fatalf("KKT violated for free sample %d: y·f=%v", i, yf)
			}
		}
	}
}

func TestLibSVMTrainKernelErrors(t *testing.T) {
	K := tensor.NewMatrix(4, 4)
	if _, err := (LibSVM{}).TrainKernel(K, []int{1, 1, 1, 1}, allIdx(4)); !errors.Is(err, svm.ErrOneClass) {
		t.Fatalf("single-class training set: %v, want svm.ErrOneClass", err)
	}
	if _, err := (LibSVM{}).TrainKernel(K, []int{0, 1, 2, 1}, allIdx(4)); err == nil || errors.Is(err, svm.ErrOneClass) {
		t.Fatalf("non-binary label: %v", err)
	}
	if _, err := (LibSVM{}).TrainKernel(K, []int{0, 1}, []int{0, 5}); err == nil || errors.Is(err, svm.ErrOneClass) {
		t.Fatalf("out-of-range index: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	K, labels := noisyProblem(rng, 40, 0.3)
	capped := LibSVM{Params: svm.Params{MaxIter: 1, Eps: 1e-12}}
	if _, err := capped.TrainKernel(K, labels, allIdx(40)); !errors.Is(err, svm.ErrNoConverge) {
		t.Fatalf("MaxIter=1: %v, want svm.ErrNoConverge", err)
	}
}

// Cross-validation treats the comparator as it treats its own solvers: a
// single-class fold and a fold out of iterations score chance (which is
// why the two sentinels are exported), plain and detailed agree exactly,
// and invalid input is an error rather than a silent 0.5.
func TestLibSVMCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	K, labels := noisyProblem(rng, 31, 0.2)
	for i := 0; i < 7; i++ {
		labels[i] = 1 // so that training on [0,7) alone is single-class
	}
	folds := svm.KFolds(31, 4)
	folds = append(folds, svm.Fold{Train: allIdx(7), Test: []int{8, 9, 10, 11, 12}})
	for name, tr := range comparators() {
		plain, err := svm.CrossValidateContext(context.Background(), tr, K, labels, folds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		detailed, err := svm.CrossValidateDetailed(tr, K, labels, folds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plain != detailed.Accuracy() {
			t.Fatalf("%s: plain accuracy %v, detailed %v", name, plain, detailed.Accuracy())
		}
		last := detailed.Folds[len(detailed.Folds)-1]
		if !last.Degenerate || last.Total != 5 || last.Accuracy() != 0.5 {
			t.Fatalf("%s: five-sample single-class fold came back %+v", name, last)
		}
	}
	capped := LibSVM{Params: svm.Params{MaxIter: 1, Eps: 1e-12}}
	if acc, err := svm.CrossValidateContext(context.Background(), capped, K, labels, folds); err != nil || acc != 0.5 {
		t.Fatalf("every fold out of iterations: accuracy %v, error %v; want chance", acc, err)
	}

	I := tensor.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		I.Set(i, i, 1)
	}
	good := []int{0, 1, 0, 1}
	for name, tc := range map[string]struct {
		labels []int
		folds  []svm.Fold
	}{
		"label outside {0,1}": {[]int{0, 1, 2, 1}, []svm.Fold{{Train: []int{0, 1, 2}, Test: []int{3}}}},
		"train index past M":  {good, []svm.Fold{{Train: []int{0, 9}, Test: []int{3}}}},
		"test index past M":   {good, []svm.Fold{{Train: []int{0, 1}, Test: []int{4}}}},
	} {
		if acc, err := svm.CrossValidateContext(context.Background(), LibSVM{}, I, tc.labels, tc.folds); err == nil {
			t.Errorf("%s: CrossValidate returned %v and no error", name, acc)
		}
		if _, err := svm.CrossValidateDetailed(LibSVM{}, I, tc.labels, tc.folds); err == nil {
			t.Errorf("%s: CrossValidateDetailed returned no error", name)
		}
	}
}

func TestQCacheEviction(t *testing.T) {
	builds := 0
	c := newQCache64(4, 2, func(i int, dst []float64) { builds++ })
	c.row(0)
	c.row(1)
	c.row(0) // hit
	if builds != 2 {
		t.Fatalf("builds = %d, want 2", builds)
	}
	c.row(2) // evicts 0
	c.row(0) // rebuild
	if builds != 4 {
		t.Fatalf("builds = %d, want 4", builds)
	}
}

func TestLookupNode(t *testing.T) {
	row := []node{{0, 1.5}, {1, 2.5}, {2, 3.5}}
	if lookupNode(row, 1) != 2.5 {
		t.Fatal("dense lookup failed")
	}
	// Sparse-style row where position != index.
	sparse := []node{{3, 7.0}, {9, 8.0}}
	if lookupNode(sparse, 9) != 8.0 {
		t.Fatal("scan lookup failed")
	}
	if lookupNode(sparse, 4) != 0 {
		t.Fatal("missing index should yield 0")
	}
}
