package svm

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fcma/internal/blas"
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
	return PrecomputeKernel(X), labels
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

// trainers lists every trainer of the package. (The double-precision
// comparator's rows of this table are internal/baseline's tests.) The last
// row hides PhiSVM's pooled-solver fast path behind the bare interface, so
// cross-validation trains it through TrainKernel and Model.Decide — the
// path any trainer from outside the package takes.
func trainers() map[string]KernelTrainer {
	return map[string]KernelTrainer{
		"phisvm":         PhiSVM{},
		"phisvm-generic": struct{ KernelTrainer }{PhiSVM{}},
	}
}

func TestTrainersSeparateTrainingData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	K, labels := separableProblem(rng, 40)
	idx := allIdx(40)
	for name, tr := range trainers() {
		model, err := tr.TrainKernel(K, labels, idx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range labels {
			if got := model.Predict(K, i); got != labels[i] {
				t.Errorf("%s: sample %d predicted %d, want %d", name, i, got, labels[i])
			}
		}
		if supportVectors(model) == 0 {
			t.Errorf("%s: no support vectors", name)
		}
	}
}

func TestTrainersAgreeOnObjective(t *testing.T) {
	// All solvers optimize the same dual; converged objectives must agree
	// to within the stopping tolerance.
	rng := rand.New(rand.NewSource(2))
	K, labels := noisyProblem(rng, 60, 0.1)
	idx := allIdx(60)
	var objs []float64
	for name, tr := range trainers() {
		model, err := tr.TrainKernel(K, labels, idx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		objs = append(objs, model.Objective)
		_ = name
	}
	for i := 1; i < len(objs); i++ {
		if math.Abs(objs[i]-objs[0]) > 0.05*math.Abs(objs[0])+0.05 {
			t.Fatalf("objectives diverge: %v", objs)
		}
	}
}

func TestTrainersAgreeOnPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	K, labels := noisyProblem(rng, 50, 0.05)
	train := allIdx(40) // hold out 10
	ref := unfusedModel(t, K, labels, train, Params{})
	for name, tr := range trainers() {
		model, err := tr.TrainKernel(K, labels, train)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 40; i < 50; i++ {
			a, b := ref.Decide(K, i), model.Decide(K, i)
			// Decisions near the boundary may differ; demand agreement
			// when the reference is confident.
			if math.Abs(a) > 0.1 && (a > 0) != (b > 0) {
				t.Errorf("%s: test sample %d decision %v vs reference %v", name, i, b, a)
			}
		}
	}
}

func TestKKTConditions(t *testing.T) {
	// At the solution: α=0 ⇒ y·f(x) ≥ 1−ε; α=C ⇒ y·f(x) ≤ 1+ε;
	// 0<α<C ⇒ y·f(x) ≈ 1. Decision uses f(x)=Σ coef·K − rho.
	rng := rand.New(rand.NewSource(4))
	K, labels := noisyProblem(rng, 50, 0.15)
	idx := allIdx(50)
	params := Params{C: 1, Eps: 1e-4}
	model, err := PhiSVM{Params: params}.TrainKernel(K, labels, idx)
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

func TestDualFeasibility(t *testing.T) {
	// Σ αᵢyᵢ = 0 and 0 ≤ αᵢ ≤ C must hold for any input.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		K, labels := noisyProblem(rng, n, 0.3)
		model, err := PhiSVM{}.TrainKernel(K, labels, allIdx(n))
		if err != nil {
			return true // single-class degenerate draw
		}
		var sum float64
		for i, kidx := range model.TrainIdx {
			y := float64(2*labels[kidx] - 1)
			alpha := model.Coef[i] * y
			if alpha < -1e-9 || alpha > defaultC+1e-9 {
				return false
			}
			sum += model.Coef[i] // coef = α·y, so Σcoef = Σαy
		}
		return math.Abs(sum) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainKernelErrors(t *testing.T) {
	K := tensor.NewMatrix(4, 4)
	oneClass := []int{1, 1, 1, 1}
	if _, err := (PhiSVM{}).TrainKernel(K, oneClass, allIdx(4)); !errors.Is(err, ErrOneClass) {
		t.Fatalf("single-class training set: %v, want ErrOneClass", err)
	}
	badLabels := []int{0, 1, 2, 1}
	if _, err := (PhiSVM{}).TrainKernel(K, badLabels, allIdx(4)); err == nil {
		t.Fatal("expected non-binary label error")
	}
	if _, err := (PhiSVM{}).TrainKernel(K, []int{0, 1}, []int{0, 5}); err == nil {
		t.Fatal("expected out-of-range index error")
	}
}

func TestMaxIterEnforced(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	K, labels := noisyProblem(rng, 40, 0.3)
	tr := PhiSVM{Params: Params{MaxIter: 1, Eps: 1e-12}}
	if _, err := tr.TrainKernel(K, labels, allIdx(40)); err == nil {
		t.Fatal("expected non-convergence error with MaxIter=1")
	}
}

// sameModel reports whether two trainings took the same path to the same
// classifier: iteration count, every coefficient and the threshold.
func sameModel(a, b *Model) bool {
	if a.Iters != b.Iters || a.Rho != b.Rho || len(a.Coef) != len(b.Coef) {
		return false
	}
	for i := range a.Coef {
		if a.Coef[i] != b.Coef[i] {
			return false
		}
	}
	return true
}

// unfusedModel trains with the unfused first-order oracle (sweep_test.go)
// and returns the classifier it reaches.
func unfusedModel(t *testing.T, K *tensor.Matrix, labels, train []int, p Params) *Model {
	t.Helper()
	s := new(smo32)
	s.reset(K, labels, train, p)
	iters, _, converged := s.solveUnfused()
	if !converged {
		t.Fatalf("oracle out of iterations after %d", iters)
	}
	s.finish()
	return s.model(iters)
}

// PhiSVM's zero value — what every production caller passes — is the
// first-order solver: TrainKernel takes the unfused oracle's path to the
// oracle's classifier.
func TestPhiSVMZeroValueIsFirstOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 200
	K, labels := noisyProblem(rng, n, 0.4)
	params := Params{C: 10, Eps: 1e-6}
	zero, err := PhiSVM{Params: params}.TrainKernel(K, labels, allIdx(n))
	if err != nil {
		t.Fatal(err)
	}
	if first := unfusedModel(t, K, labels, allIdx(n), params); !sameModel(zero, first) {
		t.Fatalf("PhiSVM took %d iterations, the first-order oracle %d", zero.Iters, first.Iters)
	}
}

func TestPrecomputeKernelMatchesDots(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X := tensor.NewMatrix(7, 30)
	for i := range X.Data {
		X.Data[i] = rng.Float32()
	}
	K := PrecomputeKernel(X)
	K2 := tensor.NewMatrix(7, 7)
	blas.Naive{}.Syrk(K2, X)
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			want := tensor.Dot(X.Row(i), X.Row(j))
			if math.Abs(float64(K.At(i, j))-want) > 1e-3 {
				t.Fatalf("kernel (%d,%d) = %v, want %v", i, j, K.At(i, j), want)
			}
			if math.Abs(float64(K.At(i, j)-K2.At(i, j))) > 1e-3 {
				t.Fatalf("syrk impls disagree at (%d,%d)", i, j)
			}
		}
	}
}

func TestLeaveOneSubjectOutFolds(t *testing.T) {
	subjects := []int{0, 0, 1, 1, 2, 2}
	folds := LeaveOneSubjectOutFolds(subjects)
	if len(folds) != 3 {
		t.Fatalf("folds = %d", len(folds))
	}
	for _, f := range folds {
		if len(f.Test) != 2 || len(f.Train) != 4 {
			t.Fatalf("fold sizes: %d test, %d train", len(f.Test), len(f.Train))
		}
		s := subjects[f.Test[0]]
		for _, i := range f.Test {
			if subjects[i] != s {
				t.Fatal("test fold mixes subjects")
			}
		}
		for _, i := range f.Train {
			if subjects[i] == s {
				t.Fatal("train fold contains test subject")
			}
		}
	}
}

func TestKFolds(t *testing.T) {
	folds := KFolds(10, 5)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		for _, i := range f.Test {
			seen[i]++
		}
		if len(f.Train)+len(f.Test) != 10 {
			t.Fatal("fold does not partition samples")
		}
	}
	for i := 0; i < 10; i++ {
		if seen[i] != 1 {
			t.Fatalf("sample %d in %d test folds", i, seen[i])
		}
	}
}

func TestCrossValidateSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	K, labels := separableProblem(rng, 48)
	subjects := make([]int, 48)
	for i := range subjects {
		subjects[i] = i / 8 // 6 subjects, 8 epochs each
	}
	folds := LeaveOneSubjectOutFolds(subjects)
	for name, tr := range trainers() {
		acc, err := CrossValidateContext(context.Background(), tr, K, labels, folds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if acc < 0.95 {
			t.Errorf("%s: accuracy %v on separable data", name, acc)
		}
	}
}

func TestCrossValidateChanceOnNoise(t *testing.T) {
	// Pure noise kernel: accuracy should hover near 0.5.
	rng := rand.New(rand.NewSource(10))
	n := 64
	X := tensor.NewMatrix(n, 40)
	for i := range X.Data {
		X.Data[i] = rng.Float32()*2 - 1
	}
	K := PrecomputeKernel(X)
	labels := make([]int, n)
	subjects := make([]int, n)
	for i := range labels {
		labels[i] = i % 2
		subjects[i] = i / 16
	}
	acc, err := CrossValidateContext(context.Background(), PhiSVM{}, K, labels, LeaveOneSubjectOutFolds(subjects))
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.2 || acc > 0.8 {
		t.Fatalf("noise accuracy %v far from chance", acc)
	}
}

func TestCrossValidateErrors(t *testing.T) {
	K := tensor.NewMatrix(4, 4)
	if _, err := CrossValidateContext(context.Background(), PhiSVM{}, K, []int{0, 1}, nil); err == nil {
		t.Fatal("expected label-length error")
	}
	if _, err := CrossValidateContext(context.Background(), PhiSVM{}, K, []int{0, 1, 0, 1}, nil); err == nil {
		t.Fatal("expected no-folds error")
	}
	if _, err := CrossValidateContext(context.Background(), PhiSVM{}, K, []int{0, 1, 0, 1}, []Fold{{}}); err == nil {
		t.Fatal("expected empty-test-fold error")
	}
}

func TestCrossValidateDegenerateFoldScoresChance(t *testing.T) {
	// A fold whose training set has only one class counts as chance.
	K := tensor.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		K.Set(i, i, 1)
	}
	labels := []int{1, 1, 1, 0}
	folds := []Fold{{Train: []int{0, 1, 2}, Test: []int{3}}}
	acc, err := CrossValidateContext(context.Background(), PhiSVM{}, K, labels, folds)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.5 {
		t.Fatalf("degenerate fold accuracy %v, want 0.5", acc)
	}
}

func TestCrossValidateDetailedMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	K, labels := noisyProblem(rng, 48, 0.15)
	subjects := make([]int, 48)
	for i := range subjects {
		subjects[i] = i / 8
	}
	folds := LeaveOneSubjectOutFolds(subjects)
	plain, err := CrossValidateContext(context.Background(), PhiSVM{}, K, labels, folds)
	if err != nil {
		t.Fatal(err)
	}
	detailed, err := CrossValidateDetailed(PhiSVM{}, K, labels, folds)
	if err != nil {
		t.Fatal(err)
	}
	if plain != detailed.Accuracy() {
		t.Fatalf("accuracies differ: %v vs %v", plain, detailed.Accuracy())
	}
	if len(detailed.Folds) != len(folds) {
		t.Fatalf("folds = %d", len(detailed.Folds))
	}
	// Confusion totals must sum to the test count.
	conf := detailed.Confusion()
	total := conf[0][0] + conf[0][1] + conf[1][0] + conf[1][1]
	if total != 48 {
		t.Fatalf("confusion sums to %d", total)
	}
	// Diagonal of the confusion matrix equals pooled correct count.
	if conf[0][0]+conf[1][1] != int(detailed.Accuracy()*48+0.5) {
		t.Fatalf("confusion diagonal inconsistent")
	}
	if detailed.TotalIters() <= 0 {
		t.Fatal("no iterations recorded")
	}
}

func TestCrossValidateDetailedDegenerate(t *testing.T) {
	K := tensor.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		K.Set(i, i, 1)
	}
	labels := []int{1, 1, 1, 0}
	folds := []Fold{{Train: []int{0, 1, 2}, Test: []int{3}}}
	stats, err := CrossValidateDetailed(PhiSVM{}, K, labels, folds)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Folds[0].Degenerate {
		t.Fatal("degenerate fold not marked")
	}
	if acc := stats.Accuracy(); acc != 0.5 || stats.Folds[0].Accuracy() != 0.5 {
		t.Fatalf("one-sample degenerate fold scores %v pooled, %v alone; want chance", acc, stats.Folds[0].Accuracy())
	}
}

// Plain and detailed cross-validation are one loop: on a fold set with an
// odd-sized degenerate fold, a fold the solver gives up on and trained
// folds, they agree to the last bit for every kind of trainer.
func TestCrossValidatePlainEqualsDetailedExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	K, labels := noisyProblem(rng, 31, 0.2)
	for i := 0; i < 7; i++ {
		labels[i] = 1 // so that training on [0,7) alone is single-class
	}
	folds := KFolds(31, 4)
	folds = append(folds, Fold{Train: allIdx(7), Test: []int{8, 9, 10, 11, 12}})
	for name, tr := range trainers() {
		plain, err := CrossValidateContext(context.Background(), tr, K, labels, folds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		detailed, err := CrossValidateDetailed(tr, K, labels, folds)
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
		// Chance on the odd fold is 2.5 of 5: the pooled score is not a
		// whole number of samples.
		if halves := plain * 2 * 36; math.Abs(halves-math.Round(halves)) > 1e-9 || int(math.Round(halves))%2 == 0 {
			t.Fatalf("%s: accuracy %v is not an odd number of half samples out of 36", name, plain)
		}
	}
	// A fold that hits MaxIter scores chance too, as it always has.
	capped := PhiSVM{Params: Params{MaxIter: 1, Eps: 1e-12}}
	plain, err := CrossValidateContext(context.Background(), capped, K, labels, folds)
	if err != nil {
		t.Fatal(err)
	}
	detailed, err := CrossValidateDetailed(capped, K, labels, folds)
	if err != nil {
		t.Fatal(err)
	}
	if plain != 0.5 || detailed.Accuracy() != 0.5 || detailed.TotalIters() != 0 {
		t.Fatalf("every fold out of iterations: plain %v, detailed %v with %d iterations; want chance and none",
			plain, detailed.Accuracy(), detailed.TotalIters())
	}
}

// Invalid input is an error from both entry points, not a degenerate fold
// silently scored at chance.
func TestCrossValidateRejectsInvalidInput(t *testing.T) {
	K := tensor.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		K.Set(i, i, 1)
	}
	good := []int{0, 1, 0, 1}
	for name, tc := range map[string]struct {
		labels []int
		folds  []Fold
	}{
		"label outside {0,1}":      {[]int{0, 1, 2, 1}, []Fold{{Train: []int{0, 1, 2}, Test: []int{3}}}},
		"label outside, test side": {[]int{0, 1, 0, -1}, []Fold{{Train: []int{0, 1, 2}, Test: []int{3}}}},
		"train index past M":       {good, []Fold{{Train: []int{0, 9}, Test: []int{3}}}},
		"train index negative":     {good, []Fold{{Train: []int{-1, 1}, Test: []int{3}}}},
		"test index past M":        {good, []Fold{{Train: []int{0, 1}, Test: []int{4}}}},
		"bad fold after a good one": {good, []Fold{
			{Train: []int{0, 1}, Test: []int{2}}, {Train: []int{0, 9}, Test: []int{3}}}},
	} {
		for trName, tr := range map[string]KernelTrainer{"phisvm": PhiSVM{}, "generic": struct{ KernelTrainer }{PhiSVM{}}} {
			if acc, err := CrossValidateContext(context.Background(), tr, K, tc.labels, tc.folds); err == nil {
				t.Errorf("%s, %s: CrossValidate returned %v and no error", name, trName, acc)
			}
			if _, err := CrossValidateDetailed(tr, K, tc.labels, tc.folds); err == nil {
				t.Errorf("%s, %s: CrossValidateDetailed returned no error", name, trName)
			}
		}
	}
}

// failingTrainer fails every fold with an error that is neither of the
// two a degenerate fold produces.
type failingTrainer struct{}

func (failingTrainer) TrainKernel(*tensor.Matrix, []int, []int) (*Model, error) {
	return nil, errors.New("disk on fire")
}

func TestCrossValidateReturnsTrainerErrors(t *testing.T) {
	K := tensor.NewMatrix(4, 4)
	folds := []Fold{{Train: []int{0, 1, 2}, Test: []int{3}}}
	if acc, err := CrossValidateContext(context.Background(), failingTrainer{}, K, []int{0, 1, 0, 1}, folds); err == nil {
		t.Fatalf("a trainer's own error scored %v instead of failing the run", acc)
	}
}

func TestCrossValidateDetailedErrors(t *testing.T) {
	K := tensor.NewMatrix(4, 4)
	if _, err := CrossValidateDetailed(PhiSVM{}, K, []int{0, 1}, nil); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, err := CrossValidateDetailed(PhiSVM{}, K, []int{0, 1, 0, 1}, []Fold{{}}); err == nil {
		t.Fatal("empty folds accepted")
	}
}

func TestParamsDefaults(t *testing.T) {
	if p := (Params{}).Resolved(10); p != (Params{C: defaultC, Eps: defaultEps, MaxIter: 10000000}) {
		t.Fatalf("small-n defaults: %+v", p)
	}
	if p := (Params{}).Resolved(200000); p.MaxIter != 20000000 {
		t.Fatalf("large-n maxIter = %d", p.MaxIter)
	}
	p := Params{C: 5, Eps: 1e-5, MaxIter: 7}
	if p.Resolved(10) != p {
		t.Fatal("explicit params ignored")
	}
}

// supportVectors counts the model's nonzero dual coefficients.
func supportVectors(m *Model) int {
	n := 0
	for _, c := range m.Coef {
		if c != 0 {
			n++
		}
	}
	return n
}

func TestModelNumSVAndDecide(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	K, labels := separableProblem(rng, 20)
	model, err := PhiSVM{}.TrainKernel(K, labels, allIdx(20))
	if err != nil {
		t.Fatal(err)
	}
	if sv := supportVectors(model); sv < 2 || sv > 20 {
		t.Fatalf("%d support vectors", sv)
	}
	// Decide and Predict agree.
	for i := 0; i < 20; i++ {
		f := model.Decide(K, i)
		p := model.Predict(K, i)
		if (f > 0) != (p == 1) {
			t.Fatalf("Decide/Predict disagree at %d", i)
		}
	}
}

func TestLeaveOneSubjectOutSingleSubject(t *testing.T) {
	folds := LeaveOneSubjectOutFolds([]int{0, 0, 0})
	if len(folds) != 1 || len(folds[0].Train) != 0 {
		t.Fatalf("degenerate LOSO: %+v", folds)
	}
}

func TestKFoldsDegenerate(t *testing.T) {
	// k > n or k <= 1 clamps to 2.
	for _, k := range []int{0, 1, 100} {
		folds := KFolds(6, k)
		if len(folds) != 2 {
			t.Fatalf("KFolds(6, %d) = %d folds", k, len(folds))
		}
	}
}
