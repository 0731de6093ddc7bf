package core

import (
	"context"
	"testing"
	_ "unsafe" // go:linkname
)

// blasLanes, normUseAVX2, normUseZMM and svmUseAVX2 are the unexported
// kernel dispatch variables of internal/blas (gemm strips, syrk tiles: 0
// Go, 8 YMM, 16 ZMM), internal/norm (the Fisher + z-score sweep, and its
// 16-lane Fisher pass) and internal/svm (the fused SMO sweep), reached by
// linkname so the task-level equivalence tests can run on every kernel
// path without any package exporting a switch nobody else should touch.
//
//go:linkname blasLanes fcma/internal/blas.lanes
var blasLanes int

//go:linkname normUseAVX2 fcma/internal/norm.useAVX2
var normUseAVX2 bool

//go:linkname normUseZMM fcma/internal/norm.useZMM
var normUseZMM bool

//go:linkname svmUseAVX2 fcma/internal/svm.useAVX2
var svmUseAVX2 bool

// hostLanes is the probe's verdict, read before any test rewrites it.
var hostLanes = blasLanes

// kernelPaths names each path by the blas lane count it runs.
var kernelPaths = []struct {
	name  string
	lanes int
}{{"go", 0}, {"avx2", 8}, {"avx512", 16}}

// setKernelPath routes every stage's kernels — the products of stages 1
// and 3 in blas, stage 2 in norm, the solver in svm — to the Go twins (0)
// or to the YMM (8) or ZMM (16) assembly; svm has one vector form, which
// both vector paths run.
func setKernelPath(lanes int) {
	blasLanes, normUseAVX2, normUseZMM, svmUseAVX2 = lanes, lanes > 0, lanes == 16, lanes > 0
}

// eachKernelPath runs f as a subtest on every kernel path; a vector path
// skips on a host that cannot run it.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	defer setKernelPath(hostLanes)
	for _, p := range kernelPaths {
		t.Run(p.name, func(t *testing.T) {
			if p.lanes > hostLanes {
				t.Skipf("host runs %d-lane kernels at most", hostLanes)
			}
			setKernelPath(p.lanes)
			f(t)
		})
	}
}

// A whole task — merged correlate+normalize, batched syrk, SVM
// cross-validation — scores every voxel the same on every kernel path:
// the gemm strips, the normalization sweep, the syrk tile and the SMO sweep
// all switch together.
func TestScoresIdenticalAcrossKernelPaths(t *testing.T) {
	if hostLanes == 0 {
		t.Skip("host has no AVX2 + FMA: the Go kernels are the only path")
	}
	defer setKernelPath(hostLanes)
	_, st := testStack(t, 40, 3, 6)
	cfg := Optimized()
	cfg.Workers = 1
	var scores [3][]VoxelScore
	for i, path := range kernelPaths {
		if path.lanes > hostLanes {
			scores[i] = scores[0]
			continue
		}
		setKernelPath(path.lanes)
		w, err := NewWorker(cfg, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		if scores[i], err = w.ProcessContext(context.Background(), Task{V0: 0, V: 40}); err != nil {
			t.Fatal(err)
		}
	}
	for p := 1; p < len(scores); p++ {
		for i := range scores[0] {
			if scores[0][i] != scores[p][i] {
				t.Fatalf("voxel %d: %s kernels score %+v, Go kernels %+v", i, kernelPaths[p].name, scores[p][i], scores[0][i])
			}
		}
	}
}
