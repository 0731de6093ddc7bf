package core

import (
	"context"
	"testing"
	_ "unsafe" // go:linkname
)

// blasUseAVX2, normUseAVX2 and svmUseAVX2 are the unexported kernel
// dispatch variables of internal/blas (gemm strips, syrk tile),
// internal/norm (the Fisher + z-score sweep) and internal/svm (the fused
// SMO sweep), reached by linkname so the task-level equivalence tests can
// run on both kernel paths without any package exporting a switch nobody
// else should touch.
//
//go:linkname blasUseAVX2 fcma/internal/blas.useAVX2
var blasUseAVX2 bool

//go:linkname normUseAVX2 fcma/internal/norm.useAVX2
var normUseAVX2 bool

//go:linkname svmUseAVX2 fcma/internal/svm.useAVX2
var svmUseAVX2 bool

// hostAVX2 is the probe's verdict, read before any test rewrites it.
var hostAVX2 = blasUseAVX2

// setKernelPath routes every stage's kernels — the products of stages 1
// and 3 in blas, stage 2 in norm, the solver in svm — to the AVX2 assembly
// or to the Go reference.
func setKernelPath(avx2 bool) {
	blasUseAVX2, normUseAVX2, svmUseAVX2 = avx2, avx2, avx2
}

// eachKernelPath runs f as a subtest on the Go kernels and on the AVX2
// kernels; the AVX2 half skips on a host without them.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	defer setKernelPath(hostAVX2)
	t.Run("go", func(t *testing.T) {
		setKernelPath(false)
		f(t)
	})
	t.Run("avx2", func(t *testing.T) {
		if !hostAVX2 {
			t.Skip("host has no AVX2")
		}
		setKernelPath(true)
		f(t)
	})
}

// A whole task — merged correlate+normalize, batched syrk, SVM
// cross-validation — scores every voxel the same on either kernel path:
// the gemm strips, the normalization sweep, the syrk tile and the SMO sweep
// all switch together.
func TestScoresIdenticalAcrossKernelPaths(t *testing.T) {
	if !hostAVX2 {
		t.Skip("host has no AVX2: the Go kernels are the only path")
	}
	defer setKernelPath(hostAVX2)
	_, st := testStack(t, 40, 3, 6)
	cfg := Optimized()
	cfg.Workers = 1
	var scores [2][]VoxelScore
	for i, avx2 := range []bool{false, true} {
		setKernelPath(avx2)
		w, err := NewWorker(cfg, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		if scores[i], err = w.ProcessContext(context.Background(), Task{V0: 0, V: 40}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range scores[0] {
		if scores[0][i] != scores[1][i] {
			t.Fatalf("voxel %d: AVX2 kernels score %+v, Go kernels %+v", i, scores[1][i], scores[0][i])
		}
	}
}
