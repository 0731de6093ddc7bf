// Native benchmarks, one per paper table/figure plus the ablations listed
// in DESIGN.md §5. These run the real kernels on the host CPU at scaled
// shapes (the per-table simulated-counter reproduction lives in
// cmd/fcma-bench); absolute numbers differ from the paper's coprocessor,
// but each benchmark pair preserves the paper's comparison.
//
//	go test -bench=. -benchmem
package fcma

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fcma/internal/baseline"
	"fcma/internal/blas"
	"fcma/internal/cluster"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// benchShape is the scaled single-worker task used throughout: the paper's
// time structure (12-point epochs) over a small brain.
const (
	benchVoxels   = 1024
	benchAssigned = 32
	benchSubjects = 6
	benchEpochs   = 8 // per subject
	benchEpochLen = 12
)

func benchDataset(b *testing.B, name string) *fmri.Dataset {
	b.Helper()
	d, err := fmri.Generate(fmri.Spec{
		Name:             name,
		Voxels:           benchVoxels,
		Subjects:         benchSubjects,
		EpochsPerSubject: benchEpochs,
		EpochLen:         benchEpochLen,
		RestLen:          4,
		SignalVoxels:     benchVoxels / 16,
		Coupling:         0.8,
		Seed:             1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchStack(b *testing.B) *corr.EpochStack {
	b.Helper()
	st, err := corr.BuildEpochStackContext(context.Background(), benchDataset(b, "bench"), 0)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func randMat(rng *rand.Rand, r, c int) *tensor.Matrix {
	m := tensor.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// --- Table 1 / Fig. 9: full three-stage task, baseline vs optimized -----

func benchWorkerTask(b *testing.B, newWorker func(*corr.EpochStack) (cluster.TaskProcessor, error)) {
	w, err := newWorker(benchStack(b))
	if err != nil {
		b.Fatal(err)
	}
	task := core.Task{V0: 0, V: benchAssigned}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.ProcessContext(context.Background(), task); err != nil {
			b.Fatal(err)
		}
	}
}

func baselineWorker(st *corr.EpochStack) (cluster.TaskProcessor, error) {
	return baseline.NewWorker(st, nil)
}
func optimizedWorker(st *corr.EpochStack) (cluster.TaskProcessor, error) {
	return core.NewWorker(core.Optimized(), st, nil)
}

func BenchmarkBaselineStages(b *testing.B)  { benchWorkerTask(b, baselineWorker) }
func BenchmarkOptimizedStages(b *testing.B) { benchWorkerTask(b, optimizedWorker) }

// BenchmarkPipelineOptimizedVsBaseline is the Fig. 9 pair under one name.
func BenchmarkPipelineOptimizedVsBaseline(b *testing.B) {
	b.Run("baseline", func(b *testing.B) { benchWorkerTask(b, baselineWorker) })
	b.Run("optimized", func(b *testing.B) { benchWorkerTask(b, optimizedWorker) })
}

// --- Table 5 / Table 6: tall-skinny GEMM and SYRK vs general blocking ---

func benchGemm(b *testing.B, impl blas.Sgemm, m, k, n int) {
	rng := rand.New(rand.NewSource(2))
	A, B := randMat(rng, m, k), randMat(rng, k, n)
	C := tensor.NewMatrix(m, n)
	b.SetBytes(blas.GemmFlops(m, k, n)) // MB/s column reads as MFLOPS/ms
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		impl.Gemm(C, A, B)
	}
}

func BenchmarkGemmTallSkinny(b *testing.B) {
	b.Run("baseline", func(b *testing.B) { benchGemm(b, baseline.BLAS{}, 120, 12, 16384) })
	b.Run("tallskinny", func(b *testing.B) { benchGemm(b, blas.TallSkinny{}, 120, 12, 16384) })
	b.Run("naive", func(b *testing.B) { benchGemm(b, blas.Naive{}, 120, 12, 16384) })
	// serve_smalljobs' two brains: strips with 14- and 12-column tails.
	for _, n := range []int{126, 172} {
		b.Run(fmt.Sprintf("tallskinny/w%d", n), func(b *testing.B) { benchGemm(b, blas.TallSkinny{}, 8, 12, n) })
	}
}

func benchSyrk(b *testing.B, impl interface{ Syrk(C, A *tensor.Matrix) }, m, n int) {
	rng := rand.New(rand.NewSource(3))
	A := randMat(rng, m, n)
	C := tensor.NewMatrix(m, m)
	b.SetBytes(blas.SyrkFlops(m, n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		impl.Syrk(C, A)
	}
}

// BenchmarkSyrk's MB/s column reads as MFLOP/s. The rows after the pair
// are one kernel matrix at every height M = 4 … 120, step 4, which covers
// each repo-benchmark height: online_subject's 12, facescene_local's 48,
// serve_smalljobs' 36 and 54, attention_cluster's 96.
func BenchmarkSyrk(b *testing.B) {
	b.Run("baseline", func(b *testing.B) { benchSyrk(b, baseline.BLAS{}, 48, 16384) })
	b.Run("tallskinny", func(b *testing.B) { benchSyrk(b, blas.TallSkinny{}, 48, 16384) })
	for m := 4; m <= 120; m += 4 {
		b.Run(fmt.Sprintf("tallskinny/m%d_n4096", m), func(b *testing.B) { benchSyrk(b, blas.TallSkinny{}, m, 4096) })
	}
}

// Block-size sweeps: the constants
// blas.DefaultColBlock, blas.DefaultSyrkBlock and corr.DefaultVoxBlock
// against their neighbours, at the two paper shapes — a task's gemm is 64
// assigned voxels × 12 time points × brain, a voxel's kernel-matrix syrk
// epochs × long dimension. `go test -run '^$' -bench BlockSizes .`
var blockShapes = []struct {
	name                    string
	brain, epochs, syrkCols int
}{
	{"facescene", 34470, 216, 8192},
	{"attention", 25260, 540, 4096},
}

func BenchmarkGemmBlockSizes(b *testing.B) {
	for _, sh := range blockShapes {
		for _, blk := range []int{512, blas.DefaultColBlock, 20480, 40960} {
			b.Run(fmt.Sprintf("%s/col%d", sh.name, blk), func(b *testing.B) {
				benchGemm(b, blas.TallSkinny{Workers: 1, ColBlock: blk}, 64, 12, sh.brain)
			})
		}
	}
}

func BenchmarkSyrkBlockSizes(b *testing.B) {
	for _, sh := range blockShapes {
		for _, blk := range []int{8, 64, blas.DefaultSyrkBlock, 672, 1296} {
			b.Run(fmt.Sprintf("%s/block%d", sh.name, blk), func(b *testing.B) {
				benchSyrk(b, blas.TallSkinny{SyrkBlock: blk}, sh.epochs, sh.syrkCols)
			})
		}
	}
}

// kernelShapes are one task of each repo-benchmark shape
// (benchmark/workloads.go) — the whole 640-voxel face-scene brain, a
// 32-voxel task of the attention brain, the whole single-subject brain of
// the online case — one wide task whose merged scratch rows lie 16 KiB
// apart at DefaultColBlock, and one 64-voxel task with the paper's 216
// face-scene epochs, where the fused stage's local block is what bounds its
// column block.
var kernelShapes = []struct {
	name                               string
	voxels, assigned, subjects, epochs int
}{
	{"facescene_local", 640, 640, 4, 12},
	{"attention_cluster", 256, 32, 6, 16},
	{"online_subject", 1024, 1024, 1, 12},
	{"wide", 4096, 64, 4, 12},
	{"paper_epochs", 4096, 64, 18, 12},
}

// benchKernelShapes runs f as a sub-benchmark per shape, building a
// shape's stack only if the -bench filter selects it.
func benchKernelShapes(b *testing.B, f func(b *testing.B, st *corr.EpochStack, assigned int)) {
	for _, sh := range kernelShapes {
		b.Run(sh.name, func(b *testing.B) {
			d, err := fmri.Generate(fmri.Spec{
				Name: sh.name, Voxels: sh.voxels, Subjects: sh.subjects, EpochsPerSubject: sh.epochs,
				EpochLen: benchEpochLen, RestLen: 6, SignalVoxels: sh.voxels / 16, Coupling: 0.4, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			st, err := corr.BuildEpochStackContext(context.Background(), d, 0)
			if err != nil {
				b.Fatal(err)
			}
			f(b, st, sh.assigned)
		})
	}
}

func benchRunKernels(b *testing.B, p *corr.Pipeline, st *corr.EpochStack, assigned int) {
	for i := 0; i < b.N; i++ {
		if _, err := p.RunKernels(context.Background(), st, 0, assigned); err != nil {
			b.Fatal(err)
		}
	}
}

// The fused stage's two block sizes against their neighbours: column
// blocks (multiples of blas.DefaultSyrkBlock; 0 is the width RunKernels
// derives) and voxel-block heights.
func BenchmarkFusedBlockSizes(b *testing.B) {
	benchKernelShapes(b, func(b *testing.B, st *corr.EpochStack, assigned int) {
		for _, cb := range []int{0, 96, 192, 384, 960, 4032} {
			b.Run(fmt.Sprintf("col%d", cb), func(b *testing.B) {
				benchRunKernels(b, &corr.Pipeline{Workers: 2, ColBlock: cb}, st, assigned)
			})
		}
		for _, vb := range []int{4, corr.DefaultVoxBlock, 16} {
			b.Run(fmt.Sprintf("vox%d", vb), func(b *testing.B) {
				benchRunKernels(b, &corr.Pipeline{Workers: 2, VoxBlock: vb}, st, assigned)
			})
		}
	})
}

// --- Table 7: merged vs separated stage 1+2 ------------------------------

// BenchmarkMergedVsSeparated times the same work three ways — stages 1 and
// 2 and every assigned voxel's kernel matrix: merged or separated into the
// (V·M)×N buffer and then one batched syrk over it (Table 7's pair), or
// fused, the way a task runs it.
func BenchmarkMergedVsSeparated(b *testing.B) {
	benchKernelShapes(b, func(b *testing.B, st *corr.EpochStack, assigned int) {
		M := st.M()
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("workers%d/fused", workers), func(b *testing.B) {
				benchRunKernels(b, &corr.Pipeline{Workers: workers}, st, assigned)
			})
			for _, variant := range []string{"merged", "separated"} {
				b.Run(fmt.Sprintf("workers%d/%s", workers, variant), func(b *testing.B) {
					// Built per variant so that a filtered-out one holds no
					// buffer (78 MB for the face-scene task).
					buf := tensor.NewMatrix(assigned*M, st.N)
					As := make([]*tensor.Matrix, assigned)
					Ks := make([]*tensor.Matrix, assigned)
					for v := range As {
						As[v] = buf.View(v*M, 0, M, st.N)
						Ks[v] = tensor.NewMatrix(M, M)
					}
					p := &corr.Pipeline{Merged: variant == "merged", Workers: workers}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := p.RunInto(context.Background(), st, 0, assigned, buf); err != nil {
							b.Fatal(err)
						}
						if err := blas.BatchSyrkContext(context.Background(), Ks, As, blas.DefaultSyrkBlock, workers); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	})
}

// --- Table 8: SVM solvers -------------------------------------------------

func benchSVMProblem(b *testing.B) (*tensor.Matrix, []int, []svm.Fold) {
	b.Helper()
	st := benchStack(b)
	p := &corr.Pipeline{Merged: true}
	buf, err := p.RunContext(context.Background(), st, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	K := svm.PrecomputeKernel(buf.View(0, 0, st.M(), st.N))
	labels := make([]int, st.M())
	subjects := make([]int, st.M())
	for i, e := range st.Epochs {
		labels[i] = e.Label
		subjects[i] = e.Subject
	}
	return K, labels, svm.LeaveOneSubjectOutFolds(subjects)
}

func benchSVM(b *testing.B, tr svm.KernelTrainer) {
	K, labels, folds := benchSVMProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.CrossValidateContext(context.Background(), tr, K, labels, folds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVMSolvers is Table 8's native column, its two ends: the
// node-array LibSVM clone and the dense float32 solver every analysis runs,
// on one face-scene-shaped voxel. (The dense second-order and adaptive rows
// were measured and removed; EXPERIMENTS.md "At PR 28" has their last
// numbers.) For the production solver at the repo benchmark's fold shapes,
// per sweep path, see BenchmarkCrossValidateShapes in internal/svm.
func BenchmarkSVMSolvers(b *testing.B) {
	b.Run("libsvm", func(b *testing.B) { benchSVM(b, baseline.LibSVM{}) })
	b.Run("phisvm", func(b *testing.B) { benchSVM(b, svm.PhiSVM{}) })
}

// Ablation: precomputed kernel vs LibSVM with a tiny row cache, which
// forces Q-row rebuilds (the cost precomputation avoids).
func BenchmarkKernelPrecompute(b *testing.B) {
	b.Run("full-cache", func(b *testing.B) { benchSVM(b, baseline.LibSVM{}) })
	b.Run("small-cache", func(b *testing.B) { benchSVM(b, baseline.LibSVM{CacheRows: 4}) })
}

// --- Tables 3/4, Fig. 8: cluster scaling ---------------------------------

func benchCluster(b *testing.B, workers, taskSize int) {
	st := benchStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cluster.RunLocal(context.Background(), workers, benchVoxels/4, taskSize, cluster.MasterOptions{},
			func(int) (cluster.TaskProcessor, cluster.WorkerOptions, error) {
				cfg := core.Optimized()
				cfg.Workers = 1
				w, err := core.NewWorker(cfg, st, nil)
				return w, cluster.WorkerOptions{}, err
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflineAnalysis measures the distributed selection pass that
// dominates Table 3, at 1 and 4 workers.
func BenchmarkOfflineAnalysis(b *testing.B) {
	b.Run("workers1", func(b *testing.B) { benchCluster(b, 1, 32) })
	b.Run("workers4", func(b *testing.B) { benchCluster(b, 4, 32) })
}

// Ablation: static (huge tasks) vs dynamic (small tasks) assignment.
func BenchmarkClusterScheduling(b *testing.B) {
	b.Run("static-2tasks", func(b *testing.B) { benchCluster(b, 2, benchVoxels/8) })
	b.Run("dynamic-16tasks", func(b *testing.B) { benchCluster(b, 2, benchVoxels/64) })
}

// BenchmarkOnlineAnalysis measures the single-subject selection loop of
// Table 4: selection plus classifier training, one call per op. The
// online_subject row is one op of that repo-benchmark workload (1024
// voxels, 12 epochs, TopK 100, Workers 2); its CPU profile is the online
// op's.
func BenchmarkOnlineAnalysis(b *testing.B) {
	for _, sh := range []struct {
		name string
		spec Spec
		cfg  Config
	}{
		{"voxels512", Spec{Voxels: 512, EpochsPerSubject: 16, RestLen: 4, SignalVoxels: 32, Coupling: 0.8, Seed: 2}, Config{TopK: 8}},
		{"online_subject", Spec{Voxels: 1024, EpochsPerSubject: 12, RestLen: 6, SignalVoxels: 96, Coupling: 0.7, Seed: 1}, Config{TopK: 100, Workers: 2}},
	} {
		b.Run(sh.name, func(b *testing.B) {
			sh.spec.Name, sh.spec.Subjects, sh.spec.EpochLen = "bench-online", 1, benchEpochLen
			d, err := Generate(sh.spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := OnlineAnalysis(d, sh.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figures 10/11 native counterpart: whole-brain selection via the public
// API (the baseline side of the comparison is the task-level pair above) ---

func BenchmarkSelectVoxels(b *testing.B) {
	d, err := Generate(Spec{
		Name: "bench-select", Voxels: 256, Subjects: 4, EpochsPerSubject: 8,
		EpochLen: benchEpochLen, RestLen: 4, SignalVoxels: 16, Coupling: 0.8, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectVoxels(d, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks -------------------------------------------------

// Ablation: LibSVM active-set shrinking (see internal/baseline/shrink.go).
func BenchmarkShrinking(b *testing.B) {
	b.Run("plain", func(b *testing.B) { benchSVM(b, baseline.LibSVM{}) })
	b.Run("shrinking", func(b *testing.B) { benchSVM(b, baseline.LibSVM{Shrinking: true}) })
}

// Activity-based MVPA vs FCMA on the same dataset (examples/unbiased).
func BenchmarkActivityMVPA(b *testing.B) {
	d := benchDataset(b, "bench-mvpa")
	wrapped := &Data{ds: d}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectVoxelsByActivity(wrapped, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// NIfTI round trip throughput on a paper-shaped frame count.
func BenchmarkNIfTIRoundTrip(b *testing.B) {
	d := benchDataset(b, "bench-nii")
	wrapped := &Data{ds: d}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var vol, eps bytes.Buffer
		if err := wrapped.SaveNIfTI(&vol, &eps); err != nil {
			b.Fatal(err)
		}
		if _, err := LoadNIfTI(&vol, nil, &eps, "bench", d.Subjects); err != nil {
			b.Fatal(err)
		}
	}
}

// Closed-loop throughput: frames per second through scanner → assembler →
// classifier (must far exceed the scanner's 1/1.5s frame rate).
func BenchmarkClosedLoop(b *testing.B) {
	d := benchDataset(b, "bench-loop")
	wrapped := &Data{ds: d}
	one := d.SelectSubjects([]int{0})
	oneWrapped := &Data{ds: one}
	res, err := OnlineAnalysis(oneWrapped, Config{TopK: 6})
	if err != nil {
		b.Fatal(err)
	}
	_ = wrapped
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds, errc := RunClosedLoop(oneWrapped, res.Classifier, 0)
		for range preds {
		}
		select {
		case err := <-errc:
			b.Fatal(err)
		default:
		}
	}
}

// Distributed vs local selection through the public API.
func BenchmarkDistributedSelection(b *testing.B) {
	d := benchDataset(b, "bench-dist")
	wrapped := &Data{ds: d}
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SelectVoxels(wrapped, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cluster2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SelectVoxelsDistributed(wrapped, Config{}, 2, 128); err != nil {
				b.Fatal(err)
			}
		}
	})
}
