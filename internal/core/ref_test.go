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
	// refDecisionDelta is the decision-value distance from 0 within which
	// a test sample may flip with the last bits of its kernel matrix.
	refDecisionDelta = 1e-2
)

// The engine against internal/ref, the float64 FCMA, on every kernel path
// (Go twins, YMM, ZMM) × the four benchmark shapes × Workers 1 and 3:
// every voxel's kernel matrix is within refKernelTol of the reference's,
// and its CV accuracy is the one the same solver gives on float32(K_ref) —
// except on a voxel with a test sample whose reference decision value lies
// within refDecisionDelta of 0, where the engine's last bits may tip it
// (counted and logged).
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
		N, M := st.N, st.M()
		want := make([][][]float64, N)
		wantAcc := make([]float64, N)
		nearZero := make([]bool, N)
		for v := range want {
			want[v] = ref.Voxel(d, v).K
			K := tensor.NewMatrix(M, M)
			for a, row := range want[v] {
				for b, x := range row {
					K.Set(a, b, float32(x))
				}
			}
			if wantAcc[v], err = svm.CrossValidateContext(context.Background(), svm.PhiSVM{}, K, labels, w0.folds); err != nil {
				t.Fatal(err)
			}
			nearZero[v] = decidesNearZero(K, labels, w0.folds)
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
					boundary := 0
					for v, s := range scores {
						if s.Accuracy == wantAcc[v] {
							continue
						}
						if !nearZero[v] {
							t.Errorf("%s: voxel %d accuracy %g, %g on the reference kernel", what, v, s.Accuracy, wantAcc[v])
						}
						boundary++
					}
					t.Logf("%s: kernel rel err %.2g; %d of %d voxels differ from the reference accuracy, all at the decision boundary", what, worst, boundary, N)
				}
			})
		})
	}
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

// decidesNearZero reports whether any fold's model, trained on K, gives a
// test sample a decision value within refDecisionDelta of 0.
func decidesNearZero(K *tensor.Matrix, labels []int, folds []svm.Fold) bool {
	for _, f := range folds {
		m, err := svm.PhiSVM{}.TrainKernel(K, labels, f.Train)
		if err != nil {
			continue // a degenerate fold scores chance on every path
		}
		for _, s := range f.Test {
			if math.Abs(m.Decide(K, s)) < refDecisionDelta {
				return true
			}
		}
	}
	return false
}
