package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"fcma/internal/blas"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/obs"
	"fcma/internal/svm"
)

func testStack(t testing.TB, voxels, subjects, epochsPerSubject int) (*fmri.Dataset, *corr.EpochStack) {
	t.Helper()
	d, err := fmri.Generate(fmri.Spec{
		Name:             "core-test",
		Voxels:           voxels,
		Subjects:         subjects,
		EpochsPerSubject: epochsPerSubject,
		EpochLen:         12,
		RestLen:          2,
		SignalVoxels:     voxels / 4,
		Coupling:         0.85,
		Seed:             99,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := corr.BuildEpochStackContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d, st
}

func TestWorkerProcessScoresAllVoxels(t *testing.T) {
	_, st := testStack(t, 40, 4, 8)
	w, err := NewWorker(Optimized(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := w.ProcessContext(context.Background(), Task{V0: 0, V: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 40 {
		t.Fatalf("scores = %d", len(scores))
	}
	for i, s := range scores {
		if s.Voxel != i {
			t.Fatalf("score %d for voxel %d", i, s.Voxel)
		}
		if s.Accuracy < 0 || s.Accuracy > 1 {
			t.Fatalf("accuracy %v out of range", s.Accuracy)
		}
	}
}

func TestFCMAFindsPlantedSignalVoxels(t *testing.T) {
	eachKernelPath(t, testFCMAFindsPlantedSignalVoxels)
}

func testFCMAFindsPlantedSignalVoxels(t *testing.T) {
	// The headline scientific behaviour: FCMA's accuracy ranking must
	// surface the voxels with planted condition-dependent connectivity.
	d, st := testStack(t, 48, 6, 12)
	w, err := NewWorker(Optimized(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := w.ProcessContext(context.Background(), Task{V0: 0, V: 48})
	if err != nil {
		t.Fatal(err)
	}
	planted := make(map[int]bool)
	for _, v := range d.SignalVoxels {
		planted[v] = true
	}
	top := TopVoxels(scores, len(d.SignalVoxels))
	hits := 0
	for _, s := range top {
		if planted[s.Voxel] {
			hits++
		}
	}
	// Demand a strong majority of the top-k to be planted voxels.
	if hits*3 < len(top)*2 {
		t.Fatalf("only %d of top %d voxels are planted signal voxels", hits, len(top))
	}
}

func TestWorkerSubrangeTask(t *testing.T) { eachKernelPath(t, testWorkerSubrangeTask) }

func testWorkerSubrangeTask(t *testing.T) {
	_, st := testStack(t, 40, 4, 8)
	w, _ := NewWorker(Optimized(), st, nil)
	scores, err := w.ProcessContext(context.Background(), Task{V0: 10, V: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 5 || scores[0].Voxel != 10 || scores[4].Voxel != 14 {
		t.Fatalf("subrange scores wrong: %+v", scores)
	}
}

func TestWorkerTaskValidation(t *testing.T) {
	_, st := testStack(t, 20, 2, 4)
	w, _ := NewWorker(Optimized(), st, nil)
	for _, task := range []Task{{V0: -1, V: 2}, {V0: 0, V: 0}, {V0: 18, V: 5}} {
		if _, err := w.ProcessContext(context.Background(), task); err == nil {
			t.Errorf("task %+v accepted", task)
		}
	}
}

func TestNewWorkerValidation(t *testing.T) {
	_, st := testStack(t, 20, 2, 4)
	if _, err := NewWorker(Config{}, st, nil); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := Optimized()
	if _, err := NewWorker(cfg, nil, nil); err == nil {
		t.Fatal("nil stack accepted")
	}
}

func TestWorkerCustomFolds(t *testing.T) {
	_, st := testStack(t, 24, 4, 6)
	folds := svm.KFolds(st.M(), 3)
	w, err := NewWorker(Optimized(), st, folds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ProcessContext(context.Background(), Task{V0: 0, V: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestTopVoxels(t *testing.T) {
	scores := []VoxelScore{{0, 0.5}, {1, 0.9}, {2, 0.7}, {3, 0.9}}
	top := TopVoxels(scores, 2)
	if len(top) != 2 || top[0].Voxel != 1 || top[1].Voxel != 3 {
		t.Fatalf("top = %+v", top)
	}
	all := TopVoxels(scores, 0)
	if len(all) != 4 || all[3].Voxel != 0 {
		t.Fatalf("all = %+v", all)
	}
	// Input must not be mutated.
	if scores[0].Voxel != 0 {
		t.Fatal("TopVoxels mutated input")
	}
}

func TestConfigPresets(t *testing.T) {
	o := Optimized()
	if !o.Merged {
		t.Fatal("merge flag wrong")
	}
	if _, ok := o.Gemm.(blas.TallSkinny); !ok {
		t.Fatal("optimized gemm wrong type")
	}
	if _, ok := o.Trainer.(svm.PhiSVM); !ok {
		t.Fatal("optimized trainer wrong type")
	}
}

// A single subject's data has no subject to leave out: nil folds there
// mean min(6, M/2)-fold over its epochs — the policy every entry point
// (library, cluster, serve, online selector) gets by passing nil.
func TestNilFoldsSingleSubjectIsKFold(t *testing.T) {
	_, st := testStack(t, 24, 1, 12)
	score := func(folds []svm.Fold) []VoxelScore {
		w, err := NewWorker(Optimized(), st, folds)
		if err != nil {
			t.Fatal(err)
		}
		scores, err := w.ProcessContext(context.Background(), Task{V0: 0, V: 24})
		if err != nil {
			t.Fatal(err)
		}
		return scores
	}
	got, want := score(nil), score(svm.KFolds(12, 6))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("voxel %d: nil folds score %+v, explicit 6-fold %+v", i, got[i], want[i])
		}
	}
}

// Every parallel stage hands a worker whole outputs — voxel blocks with
// their kernel matrices, voxels — so the worker count changes who computes
// a score, never its bits. 320 brain voxels are four 96-column syrk slices
// per kernel matrix.
func TestScoresIdenticalAcrossWorkers(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		_, st := testStack(t, 320, 3, 6)
		var want []VoxelScore
		for _, workers := range []int{1, 2, 3, 8} {
			cfg := Optimized()
			cfg.Workers = workers
			w, err := NewWorker(cfg, st, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := w.ProcessContext(context.Background(), Task{V0: 0, V: 48})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("voxel %d: Workers=%d scores %+v, Workers=1 %+v", i, workers, got[i], want[i])
				}
			}
		}
	})
}

// A voxel's score does not depend on the task it arrives in: the fused
// stage's block height follows the task size (and the worker count), the
// kernel matrices — and so the scores — do not. This is what lets a
// cluster, a chunked serve job and a local run agree bit for bit.
func TestScoresIdenticalAcrossTaskSizes(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		_, st := testStack(t, 120, 3, 4)
		cfg := Optimized()
		cfg.Workers = 2
		w, err := NewWorker(cfg, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []VoxelScore
		for _, size := range []int{st.N, 1, 3, 8, 9, 32} {
			var got []VoxelScore
			for v0 := 0; v0 < st.N; v0 += size {
				part, err := w.ProcessContext(context.Background(), Task{V0: v0, V: min(size, st.N-v0)})
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, part...)
			}
			if want == nil {
				want = got
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("voxel %d: task size %d scores %+v, one whole-brain task %+v", i, size, got[i], want[i])
				}
			}
		}
	})
}

// What a warm task allocates is its kernel matrices (one slab), its label
// and score slices and a fixed number of small objects (closures, timers):
// nothing per voxel, and above all nothing that grows with the brain —
// the (V·M)×N correlation buffer is never built.
func TestTaskAllocsIndependentOfBrainAndTaskSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	measure := func(N, V int) (objects float64, bytes uint64) {
		_, st := testStack(t, N, 2, 4)
		cfg := Optimized()
		cfg.Workers = 1
		cfg.Obs = obs.NewRegistry()
		w, err := NewWorker(cfg, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := w.ProcessContext(context.Background(), Task{V0: 0, V: V}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools and the stage histograms
		objects = testing.AllocsPerRun(10, run)
		// Bytes are the least of several runs: a collection, or the
		// goroutine moving to another P, costs one run a sync.Pool refill,
		// and those bytes do follow N.
		bytes = math.MaxUint64
		var before, after runtime.MemStats
		for i := 0; i < 5; i++ {
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return objects, bytes
	}
	base, baseBytes := measure(100, 8)
	if base > 16 {
		t.Fatalf("a warm 8-voxel task allocates %v objects, want a handful", base)
	}
	for _, sh := range [][2]int{{100, 32}, {800, 8}} {
		if got, _ := measure(sh[0], sh[1]); got != base {
			t.Fatalf("a warm task allocates %v objects at N=%d V=%d but %v at N=100 V=8", got, sh[0], sh[1], base)
		}
	}
	// Eight times the brain, same task: the bytes must not follow (the
	// buffer alone would be 8·8·800·4 = 200 KB more).
	if _, wide := measure(800, 8); wide > baseBytes+4096 {
		t.Fatalf("a warm 8-voxel task allocates %d bytes at N=800 against %d at N=100: something grows with the brain", wide, baseBytes)
	}
}
