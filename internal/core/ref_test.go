package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/ref"
	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// refShapes are the four repo-benchmark shapes (benchmark/workloads.go,
// benchmark/serve.go) at small scale: the epochs per subject and subject
// counts that set M, over a narrower brain.
var refShapes = []fmri.Spec{
	{Name: "facescene_local", Voxels: 96, Subjects: 4, EpochsPerSubject: 12, EpochLen: 12, RestLen: 6, SignalVoxels: 16, Coupling: 0.40, Seed: 1},
	{Name: "attention_cluster", Voxels: 64, Subjects: 6, EpochsPerSubject: 16, EpochLen: 12, RestLen: 6, SignalVoxels: 8, Coupling: 0.38, Seed: 2},
	{Name: "online_subject", Voxels: 128, Subjects: 1, EpochsPerSubject: 12, EpochLen: 12, RestLen: 6, SignalVoxels: 12, Coupling: 0.70, Seed: 3},
	{Name: "serve_smalljobs", Voxels: 126, Subjects: 3, EpochsPerSubject: 18, EpochLen: 12, RestLen: 6, SignalVoxels: 24, Coupling: 0.40, Seed: 4},
}

const (
	// refKernelTol bounds max|K − K_ref| / max|K_ref| for every voxel's
	// kernel matrix on every kernel path; the worst measured is 3.0e-7
	// (facescene_local, attention_cluster, serve_smalljobs; 2.6e-7 online).
	refKernelTol = 1e-6
	// refMarginFrac is how close to the decision boundary, as a share of
	// its fold's largest |d_ref|, a test sample's reference decision value
	// may be where the engine's prediction differs from the reference's:
	// the engine stops at a KKT gap 1000× the reference's, on float32
	// kernels, from a different start.
	refMarginFrac = 2e-3
)

// The engine against internal/ref, the float64 FCMA, on every kernel path
// (Go twins, YMM, ZMM; the SMO sweep's Go loop on the first, its assembly
// on the others) × the four benchmark shapes × Workers 1 and 3: every
// voxel's kernel matrix is within refKernelTol of the reference's, and
// every test prediction is the one ref.CrossValidate makes on the
// reference kernel — except where the reference decision value lies
// within refMarginFrac of its fold's largest (counted and logged). The
// task's CV accuracy is the one those predictions give.
func TestKernelPathsMatchReference(t *testing.T) {
	for _, spec := range refShapes {
		d, err := fmri.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := corr.BuildEpochStackContext(context.Background(), d, 0)
		if err != nil {
			t.Fatal(err)
		}
		w0, err := NewWorker(Optimized(), st, nil)
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]int, st.M())
		for i, e := range st.Epochs {
			if e != d.Epochs[i] {
				t.Fatalf("%s: stack epoch %d is not the dataset's", spec.Name, i)
			}
			labels[i] = e.Label
		}
		folds := w0.folds
		train, test := make([][]int, len(folds)), make([][]int, len(folds))
		for f, fold := range folds {
			train[f], test[f] = fold.Train, fold.Test
		}
		N := st.N
		want := make([][][]float64, N)
		wantD := make([][][]float64, N)
		for v := range want {
			want[v] = ref.Voxel(d, v).K
			if wantD[v], _, err = ref.CrossValidate(want[v], labels, train, test); err != nil {
				t.Fatal(err)
			}
		}
		t.Run(spec.Name, func(t *testing.T) {
			eachKernelPath(t, func(t *testing.T) {
				for _, workers := range []int{1, 3} {
					cfg := Optimized()
					cfg.Workers = workers
					w, err := NewWorker(cfg, st, nil)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%s workers=%d", spec.Name, workers)
					kernels, err := w.pipe.RunKernels(context.Background(), st, 0, N)
					if err != nil {
						t.Fatal(err)
					}
					var worst float64
					for v := range kernels {
						worst = max(worst, relErr(&kernels[v], want[v]))
					}
					if worst > refKernelTol {
						t.Errorf("%s: kernel matrices %.2g from the reference, want <= %g", what, worst, refKernelTol)
					}
					scores, err := w.ProcessContext(context.Background(), Task{V0: 0, V: N})
					if err != nil {
						t.Fatal(err)
					}
					differ, total := 0, 0
					for v := range kernels {
						correct, tested := 0, 0
						for f, fold := range folds {
							m, err := svm.PhiSVM{}.TrainKernel(&kernels[v], labels, fold.Train)
							if err != nil {
								t.Fatalf("%s: voxel %d fold %d: %v", what, v, f, err)
							}
							var margin float64
							for _, dr := range wantD[v][f] {
								margin = max(margin, math.Abs(dr))
							}
							for k, s := range fold.Test {
								pred := m.Predict(&kernels[v], s)
								if pred == labels[s] {
									correct++
								}
								tested++
								if dr := wantD[v][f][k]; pred != btoi(dr > 0) {
									differ++
									if math.Abs(dr) > refMarginFrac*margin {
										t.Errorf("%s: voxel %d fold %d sample %d predicted %d, reference decision %.4g (fold's largest |d| %.4g)",
											what, v, f, s, pred, dr, margin)
									}
								}
							}
						}
						total += tested
						if acc := float64(2*correct) / float64(2*tested); scores[v].Accuracy != acc {
							t.Errorf("%s: voxel %d CV accuracy %g, its predictions score %g", what, v, scores[v].Accuracy, acc)
						}
					}
					t.Logf("%s: kernel rel err %.2g; %d of %d test predictions differ from the reference, all within %g of their fold's largest |d_ref|",
						what, worst, differ, total, refMarginFrac)
				}
			})
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// relErr is max|K − want| / max|want|.
func relErr(K *tensor.Matrix, want [][]float64) float64 {
	var diff, scale float64
	for a, row := range want {
		for b, x := range row {
			diff = max(diff, math.Abs(float64(K.At(a, b))-x))
			scale = max(scale, math.Abs(x))
		}
	}
	return diff / scale
}
