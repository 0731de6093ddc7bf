package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fcma"
	"fcma/internal/cluster"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/ref"
	"fcma/internal/serve"
	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// refShapes are the repo-benchmark shapes (benchmark/workloads.go,
// benchmark/serve.go, whose jobs use two datasets, M = 54 and M = 36) at
// small scale: the epochs per subject and subject counts that set M, over
// a narrower brain.
var refShapes = []fmri.Spec{
	{Name: "facescene_local", Voxels: 96, Subjects: 4, EpochsPerSubject: 12, EpochLen: 12, RestLen: 6, SignalVoxels: 16, Coupling: 0.40, Seed: 1},
	{Name: "attention_cluster", Voxels: 64, Subjects: 6, EpochsPerSubject: 16, EpochLen: 12, RestLen: 6, SignalVoxels: 8, Coupling: 0.38, Seed: 2},
	{Name: "online_subject", Voxels: 128, Subjects: 1, EpochsPerSubject: 12, EpochLen: 12, RestLen: 6, SignalVoxels: 12, Coupling: 0.70, Seed: 3},
	{Name: "serve_smalljobs", Voxels: 126, Subjects: 3, EpochsPerSubject: 18, EpochLen: 12, RestLen: 6, SignalVoxels: 24, Coupling: 0.40, Seed: 4},
	{Name: "serve_smalljobs_m36", Voxels: 172, Subjects: 3, EpochsPerSubject: 12, EpochLen: 12, RestLen: 6, SignalVoxels: 32, Coupling: 0.50, Seed: 5},
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

// refMaxDiffer is, per shape, how many test predictions may differ from
// the reference's on any path and worker count: none, since a fold SMO
// has not closed in 2n iterations finishes by conjugate gradient, nearer
// the exact optimum than SMO's stopping edge (1 / 2 / 0 / 1 before).
var refMaxDiffer = map[string]int{"facescene_local": 0, "attention_cluster": 0, "online_subject": 0, "serve_smalljobs": 0, "serve_smalljobs_m36": 0}

// refServeShape is the shape whose voxels the reference test also scores
// through one serve.Service job over its HTTP handler.
const refServeShape = "attention_cluster"

// refTaskSizes are the master's task sizes the cluster leg runs on every
// shape: one voxel, a few, and the whole brain in one task (0 stands for
// N).
var refTaskSizes = []int{1, 8, 0}

// The engine against internal/ref, the float64 FCMA, on every kernel path
// (Go twins, YMM, ZMM; the SMO sweep's Go loop on the first, its assembly
// on the others) × the five benchmark shapes × Workers 1, 2 and 3: every
// voxel's kernel matrix is within refKernelTol of the reference's, and
// every test prediction is the one ref.CrossValidate makes on the
// reference kernel — except where the reference decision value lies
// within refMarginFrac of its fold's largest, and no more of those than
// refMaxDiffer allows. The task's CV accuracy is the one those predictions
// give, fcma.SelectVoxelsContext at the same Workers returns the worker's
// scores, and so is every score cluster.RunLocal returns at each of
// refTaskSizes. On the attention shape every score a serve.Service job
// returns is the accuracy of the reference's own predictions. The cluster
// leg runs on the host's kernel path alone: the paths score every voxel
// alike (TestScoresIdenticalAcrossKernelPaths), and the leg holds the
// master and its ranks, not the kernels.
func TestKernelPathsMatchReference(t *testing.T) {
	for _, spec := range refShapes {
		d, err := fmri.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := fcma.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := corr.BuildEpochStackContext(context.Background(), d, 0)
		if err != nil {
			t.Fatal(err)
		}
		w0, err := core.NewWorker(core.Optimized(), st, nil)
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
		folds := w0.Folds()
		train, test := make([][]int, len(folds)), make([][]int, len(folds))
		for f, fold := range folds {
			train[f], test[f] = fold.Train, fold.Test
		}
		N := st.N
		want := make([][][]float64, N)
		wantD := make([][][]float64, N)
		refAccuracy := make([]float64, N) // per voxel, from the reference's predictions
		for v := range want {
			want[v] = ref.Voxel(d, v).K
			if wantD[v], _, err = ref.CrossValidate(want[v], labels, train, test); err != nil {
				t.Fatal(err)
			}
			correct, tested := 0, 0
			for f, samples := range test {
				for k, s := range samples {
					correct += btoi(btoi(wantD[v][f][k] > 0) == labels[s])
					tested++
				}
			}
			refAccuracy[v] = float64(correct) / float64(tested)
		}
		t.Run(spec.Name, func(t *testing.T) {
			// accuracy is per voxel, from the engine's predictions on the
			// last path run: the host's, which the cluster leg runs on.
			var accuracy []float64
			core.EachKernelPath(t, func(t *testing.T) {
				for _, workers := range []int{1, 2, 3} {
					cfg := core.Optimized()
					cfg.Workers = workers
					w, err := core.NewWorker(cfg, st, nil)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%s workers=%d", spec.Name, workers)
					kernels, err := w.RunKernels(context.Background(), st, 0, N)
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
					scores, err := w.ProcessContext(context.Background(), core.Task{V0: 0, V: N})
					if err != nil {
						t.Fatal(err)
					}
					requireSelectScores(t, what, fd, workers, scores)
					accuracy = make([]float64, N)
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
						accuracy[v] = float64(2*correct) / float64(2*tested)
						if scores[v].Accuracy != accuracy[v] {
							t.Errorf("%s: voxel %d CV accuracy %g, its predictions score %g", what, v, scores[v].Accuracy, accuracy[v])
						}
					}
					t.Logf("%s: kernel rel err %.2g; %d of %d test predictions differ from the reference, all within %g of their fold's largest |d_ref|",
						what, worst, differ, total, refMarginFrac)
					if differ > refMaxDiffer[spec.Name] {
						t.Errorf("%s: %d test predictions differ from the reference, at most %d may", what, differ, refMaxDiffer[spec.Name])
					}
				}
				if spec.Name == refServeShape {
					requireServeScores(t, d, refAccuracy)
				}
			})
			if !t.Failed() {
				requireClusterScores(t, st, accuracy)
			}
		})
	}
}

// requireClusterScores runs the whole brain through cluster.RunLocal — two
// in-process ranks of one Workers = 1 core.Worker each, as the
// attention_cluster workload runs them — at each of refTaskSizes, and
// holds every voxel's score to the accuracy the engine's predictions give.
func requireClusterScores(t *testing.T, st *corr.EpochStack, accuracy []float64) {
	t.Helper()
	cfg := core.Optimized()
	cfg.Workers = 1
	for _, size := range refTaskSizes {
		if size == 0 {
			size = st.N
		}
		scores, err := cluster.RunLocal(context.Background(), 2, st.N, size, cluster.MasterOptions{},
			func(int) (cluster.TaskProcessor, cluster.WorkerOptions, error) {
				w, err := core.NewWorker(cfg, st, nil)
				return w, cluster.WorkerOptions{}, err
			})
		if err != nil {
			t.Fatalf("cluster.RunLocal, task size %d: %v", size, err)
		}
		if len(scores) != st.N {
			t.Fatalf("cluster.RunLocal, task size %d: %d scores for %d voxels", size, len(scores), st.N)
		}
		for v, sc := range scores {
			if sc.Voxel != v || sc.Accuracy != accuracy[v] {
				t.Errorf("cluster.RunLocal, task size %d: score %d is voxel %d at %g, want voxel %d at %g",
					size, v, sc.Voxel, sc.Accuracy, v, accuracy[v])
			}
		}
	}
}

// requireServeScores runs the dataset as one job through a serve.Service's
// HTTP handler — upload, submit, poll, fetch, as a client does — and holds
// every voxel's score to want, the accuracy of the reference's
// predictions: no prediction of the served job may differ from
// ref.CrossValidate's.
func requireServeScores(t *testing.T, d *fmri.Dataset, want []float64) {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	svc, err := serve.New(serve.Options{Dir: t.TempDir(), Executors: 1, Workers: 2, Log: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	do := func(method, path string, body []byte, out any) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: %d, decoding: %v", method, path, resp.StatusCode, err)
		}
		return resp.StatusCode
	}
	// The upload framing: the data section's length, the section, the
	// epoch text.
	var data, epochs bytes.Buffer
	if err := fmri.WriteData(&data, d); err != nil {
		t.Fatal(err)
	}
	if err := fmri.WriteEpochs(&epochs, d.Epochs); err != nil {
		t.Fatal(err)
	}
	blob := binary.LittleEndian.AppendUint64(nil, uint64(data.Len()))
	blob = append(append(blob, data.Bytes()...), epochs.Bytes()...)
	var uploaded struct{ Hash string }
	if code := do(http.MethodPost, "/api/v1/datasets", blob, &uploaded); code != http.StatusCreated {
		t.Fatalf("serve: upload answered %d", code)
	}
	spec, err := json.Marshal(serve.JobSpec{Dataset: uploaded.Hash})
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct{ ID string }
	if code := do(http.MethodPost, "/api/v1/jobs", spec, &accepted); code != http.StatusAccepted {
		t.Fatalf("serve: submit answered %d", code)
	}
	var result struct {
		Scores []struct {
			Voxel    int
			Accuracy float64
		}
	}
	for deadline := time.Now().Add(time.Minute); ; {
		code := do(http.MethodGet, "/api/v1/jobs/"+accepted.ID+"/result", nil, &result)
		if code == http.StatusOK {
			break
		}
		if code != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("serve: result answered %d", code)
		}
		<-time.After(5 * time.Millisecond) // a client's poll interval
	}
	if len(result.Scores) != len(want) {
		t.Fatalf("serve: %d scores for %d voxels", len(result.Scores), len(want))
	}
	for _, sc := range result.Scores {
		if sc.Voxel < 0 || sc.Voxel >= len(want) || sc.Accuracy != want[sc.Voxel] {
			t.Errorf("serve: voxel %d scored %g, the reference's predictions %g", sc.Voxel, sc.Accuracy, want[min(max(sc.Voxel, 0), len(want)-1)])
		}
	}
}

// requireSelectScores holds fcma.SelectVoxelsContext at the given Workers
// — the library's entry point, which builds its own stack and worker — to
// the scores the test's worker returned, voxel by voxel.
func requireSelectScores(t *testing.T, what string, d *fcma.Data, workers int, want []core.VoxelScore) {
	t.Helper()
	got, err := fcma.SelectVoxelsContext(context.Background(), d, fcma.Config{Workers: workers})
	if err != nil {
		t.Fatalf("%s: SelectVoxelsContext: %v", what, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: SelectVoxelsContext scored %d voxels, the worker %d", what, len(got), len(want))
	}
	for _, sc := range got {
		if sc.Voxel < 0 || sc.Voxel >= len(want) || sc.Accuracy != want[sc.Voxel].Accuracy {
			t.Fatalf("%s: SelectVoxelsContext scores voxel %d at %g, the worker %v", what, sc.Voxel, sc.Accuracy, want[min(max(sc.Voxel, 0), len(want)-1)])
		}
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
